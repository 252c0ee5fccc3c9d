"""Flajolet-Martin / PCSA sketches: duplicate-insensitive approximate counts.

This is the synopsis behind the paper's Count and Sum experiments: "we use a
variant of [7] (as in [5]) for achieving duplicate-insensitive addition",
with 40 32-bit bitmaps packed into one 48-byte TinyDB message via run-length
encoding and the answer taken from the ensemble of bitmaps.

Key properties this module guarantees:

* **Determinism / duplicate-insensitivity.** An item's bits depend only on
  its key (via :mod:`repro._hashing`), so re-inserting or re-fusing the same
  logical item is idempotent — exactly what multi-path routing requires.
* **ODI fusion.** ``fuse`` is bitwise OR: commutative, associative,
  idempotent (the order-and-duplicate-insensitivity condition of [16]).
* **Weighted insertion.** ``insert_count(count, key)`` simulates inserting
  ``count`` distinct virtual items in O(bitmaps * log count) time, the trick
  of Considine et al. [5] that makes Sum sketches affordable.

The estimator is standard PCSA: with B bitmaps and R_j the position of the
lowest unset bit of bitmap j, the count is (B / phi) * 2**mean(R_j), with
phi = 0.77351. Relative standard error is about 0.78/sqrt(B) — 12.3% for the
paper's 40 bitmaps, matching the ~12% approximation error it reports.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro._hashing import (
    geometric_level_batch,
    hash_key,
    hash_key_batch,
    hash_key_from,
    splitmix64,
    splitmix64_inplace,
)
from repro.errors import ConfigurationError, SketchError
from repro.network.messages import WORD_BYTES

#: Flajolet-Martin's bias-correction constant.
PHI = 0.77351

#: Bitmap width: one 32-bit message word per bitmap, the paper's
#: convention (:mod:`repro.network.messages` bills 32-bit words). Every
#: sketch, packed row and RLE size in the package uses it.
BITS = 32

#: Bits of an RLE bitmap's run-length field: ``log2(BITS)``.
_LENGTH_FIELD = (BITS - 1).bit_length()

#: Scheuermann-Mauve small-range correction exponent.
_KAPPA = 1.75

#: Above this count, ``insert_count`` switches to the sampled fast path.
_EXACT_INSERT_LIMIT = 512

#: At or below this count the exact path loops in Python; above it, the
#: vectorized column path wins despite numpy's per-call overhead.
_SCALAR_INSERT_LIMIT = 48

#: Virtual items hashed per pass of the exact-regime kernel
#: (:func:`counted_matrix`): about 64k, so a pass's few uint64 temporaries
#: stay cache-sized.
_INSERT_SLICE_ITEMS = 1 << 16

#: Precomputed hash-chain states for the two insertion substreams and the
#: binomial regime's RNG seed. Mixing continues from these states, so the
#: derived values are identical to hashing ("fm-bucket", *key) /
#: ("fm-level", *key) / ("fm-bulk", num_bitmaps, *key) from scratch.
_BUCKET_STATE = hash_key("fm-bucket")
_LEVEL_STATE = hash_key("fm-level")
_BULK_STATE = hash_key("fm-bulk")


def _trailing_zeros_capped(value: int) -> int:
    """Trailing zero bits of a 64-bit hash, capped at 63 (= geometric level)."""
    if value == 0:
        return 63
    return min(63, (value & -value).bit_length() - 1)


def _correction_table(num_bitmaps: int) -> Tuple[float, ...]:
    """Cache-safe entry point for :func:`_correction_table_cached`.

    Arguments are coerced to builtin ``int`` before touching the lru_cache:
    numpy integer scalars hash equal to builtin ints, so a first call with
    numpy-typed arguments would populate the *shared* cache entry with
    whatever numpy-semantics arithmetic produced — every later builtin-int
    caller would then be served it. Coercing at the single entry point
    pins the cache key type and the computation semantics at once.
    """
    return _correction_table_cached(int(num_bitmaps))


@lru_cache(maxsize=64)
def _correction_table_cached(num_bitmaps: int) -> Tuple[float, ...]:
    """PCSA estimates indexed by the *total* lowest-zero sum across bitmaps.

    ``estimate()`` reduces a sketch to ``sum(R_j)`` — an integer in
    [0, num_bitmaps * BITS] — so the whole corrected-estimate curve for a
    sketch shape is a finite table. Entries use exactly the expression the
    inline computation used (same float operations, same order), so the
    lookup is byte-identical to computing from scratch.

    The cache is bounded: one entry per *sketch shape*, and a long-running
    sweep process that cycles through exotic shapes evicts rather than
    growing without limit (each 40x32 table is ~1300 floats). The hot
    default shape is precomputed at import and, being constantly hit,
    never falls out of a 64-entry LRU.
    """
    values = []
    for total in range(num_bitmaps * BITS + 1):
        mean_r = total / num_bitmaps
        corrected = 2.0**mean_r - 2.0 ** (-_KAPPA * mean_r)
        values.append(max(0.0, num_bitmaps / PHI * corrected))
    return tuple(values)


@lru_cache(maxsize=64)
def _estimate_shape(num_bitmaps: int) -> Tuple[int, int, Tuple[float, ...]]:
    """``(ones, top_bits, table)`` of a sketch shape: all :meth:`FMSketch.estimate` needs.

    ``ones`` has the lowest bit of every bitmap field set, ``top_bits`` the
    highest, ``table`` is :func:`_correction_table`'s. One lookup per
    estimate; the body coerces to builtin ``int`` so the entry is the same
    whichever integer type populated it (numpy scalars hash equal to ints).
    """
    num_bitmaps = int(num_bitmaps)
    ones = sum(1 << (index * BITS) for index in range(num_bitmaps))
    return ones, ones << (BITS - 1), _correction_table_cached(num_bitmaps)


def _packed_rle_words(packed: int, num_bitmaps: int) -> int:
    """Cache-safe entry point for :func:`_packed_rle_words_cached`.

    Same contract as :func:`_correction_table`: coerce to builtin ``int``
    so the memo key and the big-int shift arithmetic are type-uniform
    whether the arguments came from numpy arrays or not (a numpy uint64
    ``packed`` would silently wrap at 64 bits inside the RLE walk).
    """
    return _packed_rle_words_cached(int(packed), int(num_bitmaps))


@lru_cache(maxsize=1 << 15)
def _packed_rle_words_cached(packed: int, num_bitmaps: int) -> int:
    """RLE transmission size of a packed bitmap vector, in words (memoized).

    Sketch payloads repeat heavily within a run — every single-item sketch
    is one of ``num_bitmaps * BITS`` values, and fused synopses recur along
    stable paths — so the word sizing of a given packed value is computed
    once and reused.
    """
    total_bits = num_bitmaps * _LENGTH_FIELD
    mask = (1 << BITS) - 1
    while packed:
        bitmap = packed & mask
        if bitmap:
            run = ((bitmap + 1) & ~bitmap).bit_length() - 1
            fringe = bitmap.bit_length() - run
            if fringe > 0:
                total_bits += fringe
        packed >>= BITS
    return max(1, -(-total_bits // (WORD_BYTES * 8)))


# The paper's 40 x 32-bit sketch shape is the hot default: build its
# estimate table at module load so no epoch pays for it.
_estimate_shape(40)


class FMSketch:
    """A PCSA (multi-bitmap Flajolet-Martin) distinct-count sketch.

    Internally the ``num_bitmaps`` bitmaps, :data:`BITS` wide each, are
    packed into one Python integer (bitmap ``j`` occupies bits
    ``[j*32, (j+1)*32)``): fusion is a single big-int OR and construction
    allocates no per-bitmap list. The :attr:`bitmaps` property materializes
    the classic list view.
    """

    __slots__ = ("num_bitmaps", "_packed")

    def __init__(
        self,
        num_bitmaps: int = 40,
        bitmaps: Optional[Sequence[int]] = None,
    ) -> None:
        if num_bitmaps <= 0:
            raise ConfigurationError("need at least one bitmap")
        self.num_bitmaps = num_bitmaps
        if bitmaps is None:
            self._packed = 0
        else:
            if len(bitmaps) != num_bitmaps:
                raise SketchError("bitmap vector has the wrong length")
            packed = 0
            for index, bitmap in enumerate(bitmaps):
                if bitmap >> BITS:
                    raise SketchError(
                        f"bitmap {index} does not fit in {BITS} bits"
                    )
                packed |= bitmap << (index * BITS)
            self._packed = packed

    @classmethod
    def from_packed(cls, num_bitmaps: int, packed: int) -> "FMSketch":
        """Build a sketch directly from its packed bitmap integer."""
        sketch = cls.__new__(cls)
        sketch.num_bitmaps = num_bitmaps
        sketch._packed = packed
        return sketch

    @property
    def bitmaps(self) -> List[int]:
        """The bitmaps as a list of ``num_bitmaps`` ints (classic view)."""
        return list(self._iter_bitmaps())

    def _iter_bitmaps(self) -> Iterator[int]:
        mask = (1 << BITS) - 1
        packed = self._packed
        for _ in range(self.num_bitmaps):
            yield packed & mask
            packed >>= BITS

    # -- insertion ---------------------------------------------------------

    def insert(self, *key: object) -> None:
        """Insert one logical item identified by ``key``.

        The bitmap index and bit level are pure functions of the key, so the
        same item always sets the same bit (duplicate-insensitivity).
        """
        bucket = hash_key_from(_BUCKET_STATE, *key) % self.num_bitmaps
        level = min(
            _trailing_zeros_capped(hash_key_from(_LEVEL_STATE, *key)),
            BITS - 1,
        )
        self._packed |= 1 << (bucket * BITS + level)

    def insert_count(self, count: int, *key: object) -> None:
        """Insert ``count`` distinct virtual items derived from ``key``.

        Virtual item ``j`` is the key extended with ``j``. Small counts are
        inserted exactly (vectorized over the ``j`` column — same hash keys,
        same bits as ``count`` scalar inserts); large counts are simulated
        per bitmap with the binomial-halving recursion of [5] — level l
        receives a Binomial(remaining, 1/2) share of the bitmap's items —
        driven by an RNG seeded from the key alone, so the simulation is
        deterministic and therefore still duplicate-insensitive.
        """
        if count < 0:
            raise SketchError("cannot insert a negative count")
        if count == 0:
            return
        if count <= _EXACT_INSERT_LIMIT:
            cap = BITS - 1
            packed = self._packed
            bucket_state = hash_key_from(_BUCKET_STATE, *key)
            level_state = hash_key_from(_LEVEL_STATE, *key)
            if count <= _SCALAR_INSERT_LIMIT:
                # Chained-scalar path: numpy's per-call overhead beats its
                # throughput on the tiny columns typical of conversions.
                for j in range(count):
                    bucket = splitmix64(bucket_state ^ j) % self.num_bitmaps
                    level = min(
                        _trailing_zeros_capped(splitmix64(level_state ^ j)),
                        cap,
                    )
                    packed |= 1 << (bucket * BITS + level)
                self._packed = packed
                return
            column = range(count)
            buckets = hash_key_batch(bucket_state, column)
            levels = geometric_level_batch(level_state, column)
            for bucket, level in zip(buckets.tolist(), levels.tolist()):
                packed |= 1 << (bucket % self.num_bitmaps * BITS + min(level, cap))
            self._packed = packed
            return
        self._packed |= _bulk_bits(
            self.num_bitmaps,
            count,
            hash_key_from(_BULK_STATE, self.num_bitmaps, *key),
        )

    # -- fusion --------------------------------------------------------------

    def fuse(self, other: "FMSketch") -> "FMSketch":
        """Return the union sketch (bitwise OR). ODI: order/dup insensitive."""
        if self.num_bitmaps != other.num_bitmaps:
            raise SketchError("cannot fuse sketches with different shapes")
        # Hand-inlined ``from_packed``: fusion is the single hottest sketch
        # operation in the multi-path waves (millions of calls per run).
        fused = FMSketch.__new__(FMSketch)
        fused.num_bitmaps = self.num_bitmaps
        fused._packed = self._packed | other._packed
        return fused

    @staticmethod
    def fuse_many(sketches: Sequence["FMSketch"]) -> "FMSketch":
        """The union of a non-empty run of sketches, as one OR.

        Equal to left-folding :meth:`fuse` (same shape check, same
        :class:`SketchError`) without the intermediate sketches: fusion is
        ODI, so a node's whole inbox is a single big-int OR.
        """
        if not sketches:
            raise ValueError("fuse_many requires at least one sketch")
        first = sketches[0]
        if len(sketches) == 1:
            return first
        num_bitmaps = first.num_bitmaps
        packed = 0
        for sketch in sketches:
            if sketch.num_bitmaps != num_bitmaps:
                raise SketchError("cannot fuse sketches with different shapes")
            packed |= sketch._packed
        fused = FMSketch.__new__(FMSketch)
        fused.num_bitmaps = num_bitmaps
        fused._packed = packed
        return fused

    def __or__(self, other: "FMSketch") -> "FMSketch":
        return self.fuse(other)

    def copy(self) -> "FMSketch":
        """An independent copy of this sketch."""
        return FMSketch.from_packed(self.num_bitmaps, self._packed)

    # -- evaluation ----------------------------------------------------------

    def _lowest_zero(self, bitmap: int) -> int:
        """Bit-walking reference for the run lengths :meth:`estimate` sums."""
        level = 0
        while bitmap & 1 and level < BITS:
            bitmap >>= 1
            level += 1
        return level

    def estimate(self) -> float:
        """The PCSA count estimate with small-range correction.

        Plain PCSA overestimates when bitmaps are nearly empty; the
        Scheuermann-Mauve correction term 2**(-kappa * mean R) repairs the
        small-count regime without affecting large counts.
        """
        packed = self._packed
        if not packed:
            return 0.0
        ones, top_bits, table = _estimate_shape(self.num_bitmaps)
        if packed & top_bits:
            # A full bitmap's ``+ 1`` would carry into its neighbour: take
            # the trailing-ones run of each bitmap off the packed integer
            # one field at a time (bitmaps above the highest non-empty one
            # contribute 0).
            mask = (1 << BITS) - 1
            total = 0
            while packed:
                bitmap = packed & mask
                total += ((bitmap + 1) & ~bitmap).bit_length() - 1
                packed >>= BITS
            return table[total]
        # Every field at once: ``~b & (b + 1)`` isolates each bitmap's
        # lowest unset bit 2**R_j; minus one that is R_j set bits, so the
        # popcount over all fields is sum(R_j).
        return table[((~packed & (packed + ones)) - ones).bit_count()]

    def is_empty(self) -> bool:
        """True when no item was ever inserted."""
        return self._packed == 0

    # -- sizing ----------------------------------------------------------------

    def words(self) -> int:
        """Transmission size in 32-bit words, using the RLE model of [17].

        Memoized equivalent of ``rle_words_for_bitmaps(self.bitmaps, BITS)``
        walking the packed integer directly — see :func:`_packed_rle_words`.
        """
        return _packed_rle_words(self._packed, self.num_bitmaps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FMSketch):
            return NotImplemented
        return (
            self.num_bitmaps == other.num_bitmaps
            and self._packed == other._packed
        )

    def __repr__(self) -> str:
        return (
            f"FMSketch(B={self.num_bitmaps}, bits={BITS}, "
            f"estimate={self.estimate():.1f})"
        )


def block_columns(nodes: Sequence[int], epochs: Sequence[int]):
    """The (node, epoch) key columns of a block, flattened epoch-major.

    Cell ``(epochs[j], nodes[i])`` is row ``j * len(nodes) + i`` — the one
    stacking convention the blocked engine relies on; :func:`block_rows`
    is its inverse. Both are int64 arrays, ready for the hash passes.
    """
    return (
        _np.tile(_np.asarray(nodes, dtype=_np.int64), len(epochs)),
        _np.repeat(_np.asarray(epochs, dtype=_np.int64), len(nodes)),
    )


def block_rows(flat: List, num: int, num_epochs: int) -> List[List]:
    """Cut an epoch-major flat list back into one row per epoch."""
    return [flat[j * num : (j + 1) * num] for j in range(num_epochs)]


def rle_words_rows(matrix):
    """RLE transmission size per row of a packed uint32 bitmap matrix.

    Row ``r`` equals :func:`_packed_rle_words` of the packed integer whose
    bitmap ``j`` is ``matrix[r, j]`` (int64). A bitmap costs its length
    field plus ``bit_length - run`` fringe bits, both exact on uint32: the
    trailing-ones run is ``bitwise_count(w & ~(w + 1))`` (a full word wraps
    to run 32), and every uint32 is exact in float64, whose ``frexp``
    exponent is ``int.bit_length`` (0 at 0).
    """
    words = _np.ascontiguousarray(matrix, dtype=_np.uint32)
    run = _np.bitwise_count(words & ~(words + _np.uint32(1)))
    bit_length = _np.frexp(words.astype(_np.float64))[1]
    total_bits = words.shape[1] * _LENGTH_FIELD + (bit_length - run).sum(
        axis=1, dtype=_np.int64
    )
    return _np.maximum(-(-total_bits // (WORD_BYTES * 8)), 1)


def words_batch(sketches: Sequence["FMSketch"]) -> List[int]:
    """RLE transmission sizes for many sketches at once.

    Entry ``i`` equals ``sketches[i].words()`` exactly. Sketches of one
    shape are sized in one :func:`rle_words_rows` pass over the (sketch x
    bitmap) word matrix; a batch mixing bitmap counts falls back to the
    scalar walk. This is the payload-sizing hot path of the
    level-synchronous schemes: one call sizes a whole ring level.
    """
    if not sketches:
        return []
    num_bitmaps = sketches[0].num_bitmaps
    if any(s.num_bitmaps != num_bitmaps for s in sketches):
        return [sketch.words() for sketch in sketches]
    width = num_bitmaps * 4  # bytes per packed vector, one word per bitmap
    buffer = b"".join(s._packed.to_bytes(width, "little") for s in sketches)
    matrix = _np.frombuffer(buffer, dtype="<u4").reshape(len(sketches), num_bitmaps)
    return rle_words_rows(matrix).tolist()


def sketch_to_row(sketch: FMSketch):
    """One packed uint32 row (little-endian words) for a sketch.

    Column ``j`` of the row is bitmap ``j`` — the exact byte layout of the
    packed integer, so ``sketch_from_row(sketch_to_row(s)) == s``. This is
    the bridge between the scalar sketch objects and the fused kernels'
    ``(rows, num_bitmaps)`` matrices.
    """
    return _np.frombuffer(
        sketch._packed.to_bytes(sketch.num_bitmaps * 4, "little"), dtype="<u4"
    )


def sketch_from_row(row) -> FMSketch:
    """Rebuild the sketch whose packed row is ``row``."""
    words = _np.ascontiguousarray(row, dtype="<u4")
    return FMSketch.from_packed(len(words), int.from_bytes(words.tobytes(), "little"))


def sketches_from_rows(matrix) -> List[FMSketch]:
    """The sketches of a packed ``(rows, num_bitmaps)`` matrix.

    Entry ``i`` is ``sketch_from_row(matrix[i])``, read off one byte buffer:
    bitmap ``j`` is word ``j``, so a row's little-endian bytes are its packed
    integer. This is how the object forms view the packed builders below.
    """
    words = _np.ascontiguousarray(matrix, dtype="<u4")
    num_bitmaps = words.shape[1]
    buffer, width = words.tobytes(), num_bitmaps * 4
    return [
        FMSketch.from_packed(
            num_bitmaps, int.from_bytes(buffer[i : i + width], "little")
        )
        for i in range(0, len(buffer), width)
    ]


def single_item_matrix(
    num_bitmaps: int,
    label: Tuple[object, ...],
    *columns: Sequence[int],
):
    """Packed single-item sketches, vectorized: one set bit per row.

    Row ``i`` is ``sketch_to_row`` of ``FMSketch(num_bitmaps).insert(
    *label, columns[0][i], ...)`` — same hash substreams, same bit. This is
    Count's SG hot path: every node of a block creates its local synopsis
    at once.
    """
    buckets = hash_key_batch(hash_key_from(_BUCKET_STATE, *label), *columns)
    buckets %= _np.uint64(num_bitmaps)
    # The capped level bit as in :func:`counted_matrix`: ``y & -y``.
    bit = hash_key_batch(hash_key_from(_LEVEL_STATE, *label), *columns).astype(
        _np.uint32
    )
    bit |= _np.uint32(1 << 31)
    bit &= -bit
    matrix = _np.zeros((len(buckets), num_bitmaps), dtype="<u4")
    matrix[_np.arange(len(buckets)), buckets.astype(_np.int64)] = bit
    return matrix


def single_item_matrix_block(
    num_bitmaps: int,
    label: Tuple[object, ...],
    nodes: Sequence[int],
    epochs: Sequence[int],
):
    """:func:`single_item_matrix` per (node, epoch) cell, epoch-major flat.

    Row ``j * len(nodes) + i`` is node ``i``'s single-item sketch for epoch
    ``epochs[j]`` (the :func:`block_columns` stacking), returned as one
    ``(len(epochs) * len(nodes), num_bitmaps)`` uint32 matrix.
    """
    if len(nodes) == 0 or len(epochs) == 0:
        return _np.zeros((len(nodes) * len(epochs), num_bitmaps), dtype="<u4")
    return single_item_matrix(num_bitmaps, label, *block_columns(nodes, epochs))


def counted_matrix(
    num_bitmaps: int,
    label: Tuple[object, ...],
    counts: Sequence[int],
    *columns: Sequence[int],
):
    """Packed weighted sketches, vectorized across all rows.

    Row ``i`` is ``sketch_to_row`` of ``FMSketch(num_bitmaps).
    insert_count(counts[i], *label, columns[0][i], ...)`` — same hash
    substreams, same bits. This is the Sum SG and conversion hot path: a
    whole epoch block builds its sketches at once.

    The exact regime hashes ~:data:`_INSERT_SLICE_ITEMS` virtual items per
    pass through the scalar path's two SplitMix64 substreams: item ``j``
    sets bit ``min(tz(level hash), 31)`` of bitmap ``bucket hash %
    num_bitmaps``. That bit is ``y & -y`` for ``y`` the hash's low word with
    bit 31 set: the lowest set bit of ``y`` is the hash's own unless it lies
    at or above the cap. One flat ``bitwise_or.at`` on ``row * num_bitmaps
    + bucket`` lands a pass. Each count above :data:`_EXACT_INSERT_LIMIT`
    copies its binomial-regime bits in (:func:`_bulk_bits`).
    """
    total = len(counts)
    if any(len(column) != total for column in columns):
        raise SketchError("counted columns must match counts")
    matrix = _np.zeros((total, num_bitmaps), dtype="<u4")
    if total == 0:
        return matrix
    counts = _np.asarray(counts, dtype=_np.int64)
    if bool((counts < 0).any()):
        raise SketchError("cannot insert a negative count")
    exact = _np.flatnonzero((counts > 0) & (counts <= _EXACT_INSERT_LIMIT))
    if len(exact):
        bucket_states = hash_key_batch(
            hash_key_from(_BUCKET_STATE, *label), *columns
        )[exact]
        level_states = hash_key_batch(
            hash_key_from(_LEVEL_STATE, *label), *columns
        )[exact]
        reps = counts[exact]
        ends = _np.cumsum(reps)
        row_starts = ends - reps
        offsets = exact * num_bitmaps
        top = _np.uint32(1 << 31)
        flat = matrix.reshape(-1)
        start = 0
        while start < len(exact):
            first = int(row_starts[start])
            stop = max(
                start + 1,
                int(_np.searchsorted(ends, first + _INSERT_SLICE_ITEMS, "right")),
            )
            cells = slice(start, stop)
            virtual = _np.arange(first, int(ends[stop - 1]), dtype=_np.int64)
            virtual -= _np.repeat(row_starts[cells], reps[cells])
            virtual = virtual.view(_np.uint64)
            index = _np.repeat(bucket_states[cells], reps[cells])
            index ^= virtual
            splitmix64_inplace(index)
            index %= _np.uint64(num_bitmaps)
            index = index.view(_np.int64)
            index += _np.repeat(offsets[cells], reps[cells])
            level = _np.repeat(level_states[cells], reps[cells])
            level ^= virtual
            bit = splitmix64_inplace(level).astype(_np.uint32, copy=False)
            bit |= top
            bit &= -bit
            _np.bitwise_or.at(flat, index, bit)
            start = stop
    rows = _np.flatnonzero(counts > _EXACT_INSERT_LIMIT)
    if len(rows):
        prefix = hash_key_from(_BULK_STATE, num_bitmaps, *label)
        for row in rows.tolist():
            seed = hash_key_from(prefix, *(int(column[row]) for column in columns))
            value = _bulk_bits(num_bitmaps, int(counts[row]), seed)
            matrix[row] = _np.frombuffer(
                value.to_bytes(num_bitmaps * 4, "little"), dtype="<u4"
            )
    return matrix


#: ``_FAIR_MASKS[n]``: the top bit of the first 32-bit word of each of ``n``
#: consecutive ``random()`` draws, as laid out by ``getrandbits(64 * n)``.
_FAIR_MASKS = tuple(
    sum(1 << (64 * draw + 31) for draw in range(n)) for n in range(65)
)


def _binomial(rng, n: int, p: float) -> int:
    """Sample Binomial(n, p) from ``rng``.

    Exact Bernoulli summation for small n; a clamped normal approximation for
    large n (fine here: the samples only shape which high bits get set).
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n <= 64:
        if p == 0.5:
            # The halving recursion's hot case, one call instead of n.
            # ``random()`` consumes two Mersenne-Twister words and is below
            # 0.5 exactly when the first word's top bit is clear;
            # ``getrandbits(64 * n)`` consumes the same 2n words in the same
            # order, so both the count and the stream position are those of
            # the Bernoulli loop below.
            return n - (rng.getrandbits(64 * n) & _FAIR_MASKS[n]).bit_count()
        return sum(1 for _ in range(n) if rng.random() < p)
    mean = n * p
    std = (n * p * (1.0 - p)) ** 0.5
    sample = int(round(rng.gauss(mean, std)))
    return min(n, max(0, sample))


def _bulk_bits(num_bitmaps: int, count: int, seed: int) -> int:
    """The packed bits of ``count`` virtual items in the binomial regime.

    A multinomial split of ``count`` over the bitmaps, then per bitmap the
    binomial-halving recursion of [5]: level ``l`` receives a
    Binomial(remaining, 1/2) share, the top level the rest. Every draw comes
    from ``random.Random(seed)``; the fair-coin ones are :func:`_binomial`'s
    inlined — the same ``getrandbits`` words or normal sample in the same
    order, so the stream position (part of every golden) is unchanged.
    """
    rng = random.Random(seed)
    getrandbits, gauss = rng.getrandbits, rng.gauss
    packed = 0
    remaining_total = count
    for bucket in range(num_bitmaps):
        if not remaining_total:
            break  # every later share is 0 and draws nothing
        buckets_left = num_bitmaps - bucket
        if buckets_left == 1:
            share = remaining_total
        else:
            share = _binomial(rng, remaining_total, 1.0 / buckets_left)
        remaining_total -= share
        level, remaining = 0, share
        while remaining > 0 and level < BITS:
            if remaining <= 64:
                taken = remaining - (
                    getrandbits(64 * remaining) & _FAIR_MASKS[remaining]
                ).bit_count()
            else:
                half = remaining * 0.5
                sample = int(round(gauss(half, (half * 0.5) ** 0.5)))
                taken = min(remaining, max(0, sample))
            if level == BITS - 1:
                taken = remaining
            if taken > 0:
                packed |= 1 << (bucket * BITS + level)
            remaining -= taken
            level += 1
    return packed
