"""The ``pure`` kernel backend: numpy ufunc implementations.

Reference implementation of the :class:`~repro.kernels.KernelBackend`
primitives. Everything here is exact integer math: OR/add scatters go
through ``ufunc.at``/``reduceat`` and the RLE sizing reuses the proven
log2-on-exact-powers trick of :func:`repro.multipath.fm.words_batch`
(float64 log2 of a 32-bit integer cannot land on the wrong side of an
integer — see the inline proof there).
"""

from __future__ import annotations

import numpy as _np

from repro.kernels import KernelBackend
from repro.network.messages import WORD_BYTES


class PureBackend(KernelBackend):
    """Vectorized numpy kernels (the default fused backend)."""

    name = "pure"
    fused = True

    def or_reduce(self, matrix, starts):
        if len(starts) == 0:
            return matrix[:0]
        return _np.bitwise_or.reduceat(matrix, starts, axis=0)

    def or_into(self, dest, rows, values):
        dest[rows] |= values

    def add_into(self, dest, rows, values):
        _np.add.at(dest, rows, values)

    def any_reduce(self, flags, starts, stops):
        out = _np.zeros((len(starts), flags.shape[1]), dtype=bool)
        nonempty = stops > starts
        if flags.shape[0] and bool(nonempty.any()):
            # Segments partition the row range contiguously, so reducing at
            # the non-empty starts only still yields exactly each segment's
            # rows (empty segments sit on the boundaries and contribute no
            # rows to either neighbour).
            out[nonempty] = _np.logical_or.reduceat(
                flags, starts[nonempty], axis=0
            )
        return out

    def rle_words(self, matrix, bits):
        rows = matrix.shape[0]
        if rows == 0:
            return _np.zeros(0, dtype=_np.int64)
        num_bitmaps = matrix.shape[1]
        wide = matrix.astype(_np.uint64)
        nonzero = wide != 0
        safe = _np.where(nonzero, wide, 1)  # keep log2 off zero bitmaps
        low = (safe + _np.uint64(1)) & ~safe
        run = _np.where(
            nonzero, _np.log2(low.astype(_np.float64)).astype(_np.int64), 0
        )
        bitlen = _np.where(
            nonzero,
            _np.floor(_np.log2(safe.astype(_np.float64))).astype(_np.int64)
            + 1,
            0,
        )
        fringe = bitlen - run  # >= 0 by construction; 0 for pure runs
        length_field = max(1, (bits - 1).bit_length())
        total_bits = num_bitmaps * length_field + fringe.sum(axis=1)
        words = -(-total_bits // (WORD_BYTES * 8))
        return _np.maximum(words, 1)


__all__ = ["PureBackend"]
