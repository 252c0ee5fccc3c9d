"""Deterministic hashing utilities shared across the library.

Everything in this reproduction must be reproducible under a seed, and the
duplicate-insensitive sketches additionally require that the *same logical
item* hashes identically no matter which node, path, or process touches it.
Python's built-in ``hash`` is salted per process, so we provide a stable
64-bit mixer (SplitMix64) plus helpers for deriving keyed substreams.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as _np

_MASK64 = (1 << 64) - 1

#: Golden-ratio increment used by SplitMix64.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """Mix a 64-bit integer through the SplitMix64 finalizer.

    SplitMix64 is a small, well-studied finalizer with excellent avalanche
    behaviour; it is the default seeding primitive of ``java.util.SplittableRandom``
    and numpy's ``SeedSequence`` draws on the same family.
    """
    value = (value + _SPLITMIX_GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def _mix_in(state: int, token: object) -> int:
    """Fold one token into a running SplitMix64 state."""
    if isinstance(token, int):
        data = token & _MASK64
    elif isinstance(token, str):
        data = 0
        for byte in token.encode("utf-8"):
            data = splitmix64(data ^ byte)
    elif isinstance(token, float):
        data = splitmix64(hash_key("float", token.hex()))
    elif isinstance(token, tuple):
        data = hash_key(*token)
    elif token is None:
        data = 0x5CA1AB1E
    else:
        data = hash_key(type(token).__name__, repr(token))
    return splitmix64(state ^ data)


def hash_key(*tokens: object) -> int:
    """Hash an arbitrary key (sequence of tokens) to a stable 64-bit integer.

    >>> hash_key("count", 3) == hash_key("count", 3)
    True
    >>> hash_key("count", 3) != hash_key("count", 4)
    True
    """
    state = 0x243F6A8885A308D3  # pi fractional bits: an arbitrary fixed IV
    for token in tokens:
        state = _mix_in(state, token)
    return state


def hash_unit(*tokens: object) -> float:
    """Hash a key to a float uniform in [0, 1)."""
    return hash_key(*tokens) / float(1 << 64)


def geometric_level(*tokens: object) -> int:
    """Hash a key to a geometric level: level i with probability 2^-(i+1).

    This is the bit-position primitive of Flajolet-Martin counting: the level
    is the number of leading zero bits of a uniform hash.
    """
    value = hash_key(*tokens)
    level = 0
    while value & 1 == 0 and level < 63:
        value >>= 1
        level += 1
    return level


def hash_key_from(state: int, *tokens: object) -> int:
    """Continue a :func:`hash_key` chain from a precomputed prefix state.

    ``hash_key(a, b, c) == hash_key_from(hash_key(a, b), c)`` for any
    tokens: the mixer folds tokens left-to-right, so a fixed key prefix
    (scheme labels, seeds) can be hashed once and reused. This is the
    scalar twin of the ``prefix`` argument of :func:`hash_key_batch`.
    """
    for token in tokens:
        state = _mix_in(state, token)
    return state


_NP_GAMMA = _np.uint64(_SPLITMIX_GAMMA)
_NP_MUL1 = _np.uint64(0xBF58476D1CE4E5B9)
_NP_MUL2 = _np.uint64(0x94D049BB133111EB)
_NP_S30 = _np.uint64(30)
_NP_S27 = _np.uint64(27)
_NP_S31 = _np.uint64(31)


def splitmix64_inplace(values: "_np.ndarray") -> "_np.ndarray":
    """SplitMix64 finalizer over a uint64 array, in place (wraps mod 2^64).

    Element ``i`` becomes ``splitmix64(values[i])``; the one temporary per
    step is a shift, so callers hashing large columns pay no extra copies.
    """
    values += _NP_GAMMA
    values ^= values >> _NP_S30
    values *= _NP_MUL1
    values ^= values >> _NP_S27
    values *= _NP_MUL2
    values ^= values >> _NP_S31
    return values


def _column_u64(column: Sequence[int], length: int) -> "_np.ndarray":
    """A token column as uint64, C-cast (i.e. masked) like ``& _MASK64``."""
    array = _np.asarray(column)
    if array.shape != (length,):
        raise ValueError("hash columns must share one length")
    if length == 0:  # empty levels: asarray([]) defaults to float64
        return _np.zeros(0, dtype=_np.uint64)
    if array.dtype == object:  # arbitrary-precision ints: mask manually
        return _np.array(
            [int(value) & _MASK64 for value in column], dtype=_np.uint64
        )
    if array.dtype.kind not in "iu":
        raise TypeError("hash columns must hold integers")
    with _np.errstate(over="ignore"):
        return array.astype(_np.uint64, copy=False)


def hash_key_batch(
    prefix: Sequence[object], *columns: Sequence[int]
) -> Sequence[int]:
    """Hash many keys sharing a token prefix, one key per column row.

    Returns a uint64 ndarray; coerce entries with ``int()`` before doing
    arbitrary-precision arithmetic on them.

    Row ``i`` hashes exactly like ``hash_key(*prefix, columns[0][i],
    columns[1][i], ...)`` — bit-identical to the scalar path, so callers
    (the lossy channel, the FM sketches) can vectorize their hot loops
    without perturbing a single draw. Column entries must be integers;
    non-integer tokens belong in the prefix. ``prefix`` may also be a bare
    ``int``: a chain state from :func:`hash_key` / :func:`hash_key_from`,
    letting hot paths hash their fixed prefix once.
    """
    if not columns:
        raise ValueError("hash_key_batch needs at least one column")
    length = len(columns[0])
    if any(len(column) != length for column in columns[1:]):
        raise ValueError("hash columns must share one length")
    start = prefix if isinstance(prefix, int) else hash_key(*prefix)
    state = _np.full(length, start, dtype=_np.uint64)
    for column in columns:
        state ^= _column_u64(column, length)
        splitmix64_inplace(state)
    return state


def hash_unit_batch(
    prefix: Sequence[object], *columns: Sequence[int]
) -> Sequence[float]:
    """Hash many keys to uniforms in [0, 1); see :func:`hash_key_batch`.

    Row ``i`` equals ``hash_unit(*prefix, columns[0][i], ...)`` exactly:
    uint64 -> float64 conversion rounds to nearest in both numpy and
    CPython, and the divisor 2^64 is a power of two, so the scaling is
    exact in either path.
    """
    return hash_key_batch(prefix, *columns) / _np.float64(1 << 64)


def geometric_level_batch(
    prefix: Sequence[object], *columns: Sequence[int]
) -> Sequence[int]:
    """Vectorized :func:`geometric_level`: trailing zero bits of each hash.

    Row ``i`` equals ``geometric_level(*prefix, columns[0][i], ...)``.
    """
    keys = hash_key_batch(prefix, *columns)
    lowbit = keys & (~keys + _np.uint64(1))
    return _np.where(
        keys == 0, 63, _np.log2(lowbit.astype(_np.float64)).astype(_np.int64)
    )


def stream_rng(*tokens: object) -> random.Random:
    """Return a ``random.Random`` seeded deterministically from a key.

    Use this for *simulation* randomness (channel loss draws, workloads),
    never for sketch hashing — sketches must use :func:`hash_key` directly so
    that identical items collide identically.
    """
    return random.Random(hash_key(*tokens))
