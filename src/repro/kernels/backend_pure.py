"""The ``pure`` kernel backend: numpy ufunc implementations.

Reference implementation of the :class:`~repro.kernels.KernelBackend`
primitives. Everything here is exact: OR/add scatters are plain fancy
indexing and ``add.at``, segment any() is a difference of running counts,
and RLE sizing is :func:`repro.multipath.fm.rle_words_rows` — the one
uint32 sizing pass the object path's ``words_batch`` uses too.
"""

from __future__ import annotations

import numpy as _np

from repro.kernels import KernelBackend
from repro.multipath.fm import rle_words_rows


class PureBackend(KernelBackend):
    """Vectorized numpy kernels (the default fused backend)."""

    name = "pure"
    fused = True

    def or_into(self, dest, rows, values):
        dest[rows] |= values

    def add_into(self, dest, rows, values):
        _np.add.at(dest, rows, values)

    def any_reduce(self, flags, starts, stops):
        # Running count of set flags per column: a segment holds one iff
        # the count grows across it (empty segments never do).
        running = _np.zeros((flags.shape[0] + 1, flags.shape[1]), dtype=_np.int64)
        _np.cumsum(flags, axis=0, out=running[1:])
        return running[stops] > running[starts]

    def rle_words(self, matrix, bits):
        return rle_words_rows(matrix, bits)


__all__ = ["PureBackend"]
