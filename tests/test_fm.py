"""Tests for the Flajolet-Martin / PCSA sketch."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._hashing import stream_rng
from repro.errors import SketchError
from repro.multipath import fm
from repro.multipath.fm import (
    FMSketch,
    _binomial,
    _correction_table,
    counted_matrix,
    counted_sketches,
    sketch_to_row,
)
from repro.multipath.synopsis import check_odi


class TestInsertion:
    def test_insert_is_idempotent(self):
        a = FMSketch(16)
        a.insert("item", 1)
        b = a.copy()
        b.insert("item", 1)
        assert a == b

    def test_empty_estimate_zero(self):
        assert FMSketch().estimate() == 0.0
        assert FMSketch().is_empty()

    def test_insert_count_zero_is_noop(self):
        sketch = FMSketch()
        sketch.insert_count(0, "x")
        assert sketch.is_empty()

    def test_insert_count_matches_exact_small(self):
        # Below the exact-insert limit both paths must agree bit-for-bit.
        a = FMSketch(8)
        a.insert_count(100, "key")
        b = FMSketch(8)
        for j in range(100):
            b.insert("key", j)
        assert a == b

    def test_insert_count_negative_rejected(self):
        with pytest.raises(SketchError):
            FMSketch().insert_count(-1, "x")

    def test_bulk_insert_deterministic(self):
        a = FMSketch()
        a.insert_count(100_000, "big")
        b = FMSketch()
        b.insert_count(100_000, "big")
        assert a == b


class TestFusion:
    def test_fuse_is_union(self):
        a = FMSketch(8)
        a.insert("x")
        b = FMSketch(8)
        b.insert("y")
        fused = a.fuse(b)
        both = FMSketch(8)
        both.insert("x")
        both.insert("y")
        assert fused == both

    def test_odi_properties(self):
        sketches = []
        for key in ("a", "b", "c"):
            sketch = FMSketch(8)
            sketch.insert_count(50, key)
            sketches.append(sketch)
        assert check_odi(lambda x, y: x.fuse(y), sketches)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SketchError):
            FMSketch(8).fuse(FMSketch(16))

    def test_or_operator(self):
        a = FMSketch(8)
        a.insert("x")
        assert (a | FMSketch(8)) == a


class TestAccuracy:
    @pytest.mark.parametrize("true_count", [100, 1000, 10_000])
    def test_estimate_within_tolerance(self, true_count):
        # PCSA with 40 bitmaps: ~12% standard error; allow 4 sigma over a
        # few seeds to keep the test deterministic but meaningful.
        errors = []
        for seed in range(5):
            sketch = FMSketch(40)
            sketch.insert_count(true_count, "acc", seed)
            errors.append(abs(sketch.estimate() - true_count) / true_count)
        assert sum(errors) / len(errors) < 0.25

    def test_estimate_monotone_under_fusion(self):
        a = FMSketch(40)
        a.insert_count(500, "m1")
        b = FMSketch(40)
        b.insert_count(500, "m2")
        fused = a.fuse(b)
        assert fused.estimate() >= max(a.estimate(), b.estimate())

    def test_distinct_counting_ignores_duplicates(self):
        sketch = FMSketch(40)
        for _ in range(50):
            sketch.insert_count(200, "same-key")
        single = FMSketch(40)
        single.insert_count(200, "same-key")
        assert sketch == single


class TestSizing:
    def test_words_positive(self):
        sketch = FMSketch(40)
        sketch.insert_count(1000, "w")
        assert 1 <= sketch.words() <= sketch.raw_words()

    def test_typical_count_sketch_fits_one_message(self):
        # The experimental setup of Section 7.1: 40 bitmaps, RLE, 48-byte
        # messages.
        sketch = FMSketch(40)
        sketch.insert_count(600, "net")
        assert sketch.words() <= 12


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_fusion_order_invariance(self, counts):
        sketches = []
        for index, count in enumerate(counts):
            sketch = FMSketch(8)
            sketch.insert_count(count, "p", index)
            sketches.append(sketch)
        forward = sketches[0]
        for sketch in sketches[1:]:
            forward = forward.fuse(sketch)
        backward = sketches[-1]
        for sketch in reversed(sketches[:-1]):
            backward = backward.fuse(sketch)
        assert forward == backward

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        n=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_fair_binomial_fast_path_is_the_bernoulli_loop(self, seed, n):
        """Same value *and* same stream position as ``n`` ``random()`` draws."""
        fast, loop = random.Random(seed), random.Random(seed)
        expected = sum(1 for _ in range(n) if loop.random() < 0.5)
        assert _binomial(fast, n, 0.5) == expected
        # Whatever is drawn next — uniform or (stateful) normal — agrees.
        assert fast.random() == loop.random()
        assert fast.gauss(0.0, 1.0) == loop.gauss(0.0, 1.0)
        assert fast.getstate() == loop.getstate()

    @given(
        num_bitmaps=st.integers(min_value=1, max_value=12),
        bits=st.sampled_from((1, 5, 16, 32)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_estimate_matches_bit_walking_reference(
        self, num_bitmaps, bits, data
    ):
        """Trailing-ones arithmetic on the packed int == ``_lowest_zero``."""
        # Mix arbitrary bitmaps with the shapes real sketches have: solid
        # low runs, up to completely full bitmaps.
        bitmap = st.one_of(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            st.integers(min_value=0, max_value=bits).map(
                lambda run: (1 << run) - 1
            ),
        )
        bitmaps = data.draw(
            st.lists(bitmap, min_size=num_bitmaps, max_size=num_bitmaps)
        )
        sketch = FMSketch(num_bitmaps, bits, bitmaps=bitmaps)
        if sketch.is_empty():
            assert sketch.estimate() == 0.0
            return
        total = sum(sketch._lowest_zero(b) for b in sketch._iter_bitmaps())
        assert sketch.estimate() == _correction_table(num_bitmaps, bits)[total]


#: Every sketch shape in use — the heavy-hitters item (8) and n (16)
#: operators, the paper's 40 — and small odd ones around the field edges.
_SHAPES = [(8, 32), (16, 32), (40, 32), (1, 1), (3, 5), (7, 3), (5, 7), (2, 64)]


def _walked_estimate(sketch):
    """The estimate from the bit-walking reference, one bitmap at a time."""
    if sketch.is_empty():
        return 0.0
    total = sum(sketch._lowest_zero(b) for b in sketch._iter_bitmaps())
    return _correction_table(sketch.num_bitmaps, sketch.bits)[total]


@pytest.mark.parametrize("num_bitmaps, bits", _SHAPES)
class TestWordParallelEstimate:
    """``estimate()`` reads all bitmaps at once; the walk is the reference."""

    def test_empty_and_saturated(self, num_bitmaps, bits):
        assert FMSketch(num_bitmaps, bits).estimate() == 0.0
        full = FMSketch(num_bitmaps, bits, bitmaps=[(1 << bits) - 1] * num_bitmaps)
        assert full.estimate() == _correction_table(num_bitmaps, bits)[
            num_bitmaps * bits
        ]
        assert full.estimate() == _walked_estimate(full)

    def test_top_bit_set_takes_the_per_bitmap_walk(self, num_bitmaps, bits):
        """A set top bit (a full bitmap would carry into its neighbour)."""
        for position in range(num_bitmaps):
            bitmaps = [(1 << (bits - 1)) - 1] * num_bitmaps  # runs of bits-1
            bitmaps[position] = (1 << bits) - 1  # one saturated field
            sketch = FMSketch(num_bitmaps, bits, bitmaps=bitmaps)
            assert sketch.estimate() == _walked_estimate(sketch)
            bitmaps[position] = 1 << (bits - 1)  # top bit alone: run of 0
            sketch = FMSketch(num_bitmaps, bits, bitmaps=bitmaps)
            assert sketch.estimate() == _walked_estimate(sketch)

    def test_every_run_length_in_every_field(self, num_bitmaps, bits):
        rng = random.Random(num_bitmaps * 1000 + bits)
        for _ in range(50):
            bitmaps = []
            for _ in range(num_bitmaps):
                run = rng.randrange(bits + 1)
                fringe = rng.getrandbits(bits) & ~((1 << (run + 1)) - 1)
                bitmaps.append(((1 << run) - 1 | fringe) & ((1 << bits) - 1))
            sketch = FMSketch(num_bitmaps, bits, bitmaps=bitmaps)
            assert sketch.estimate() == _walked_estimate(sketch)

    def test_inserted_counts(self, num_bitmaps, bits):
        sketch = FMSketch(num_bitmaps, bits)
        for step, count in enumerate((1, 3, 40, 700, 5000)):
            sketch.insert_count(count, "walk", step)
            assert sketch.estimate() == _walked_estimate(sketch)


class TestFuseMany:
    def test_equals_the_pairwise_fold(self):
        sketches = []
        for index in range(6):
            sketch = FMSketch(16)
            sketch.insert_count(10 * index + 1, "many", index)
            sketches.append(sketch)
        for count in (1, 2, 6):
            folded = sketches[0]
            for sketch in sketches[1:count]:
                folded = folded.fuse(sketch)
            assert FMSketch.fuse_many(sketches[:count]) == folded

    def test_rejects_mismatched_shapes_like_fuse(self):
        a, b, c = FMSketch(8), FMSketch(8), FMSketch(8, bits=16)
        with pytest.raises(SketchError) as pairwise:
            a.fuse(c)
        with pytest.raises(SketchError) as nary:
            FMSketch.fuse_many([a, b, c])
        assert str(nary.value) == str(pairwise.value)

    def test_rejects_an_empty_run(self):
        with pytest.raises(ValueError):
            FMSketch.fuse_many([])


def _reference_bulk_insert(sketch, count, *key):
    """The binomial regime as ``insert_count`` first wrote it.

    A multinomial split of ``count`` over the bitmaps, then the halving
    recursion, every draw through :func:`_binomial`: the reference the
    inlined draws must match bit for bit and draw for draw.
    """
    rng = stream_rng("fm-bulk", sketch.num_bitmaps, *key)
    remaining_total = count
    for bucket in range(sketch.num_bitmaps):
        buckets_left = sketch.num_bitmaps - bucket
        if buckets_left == 1:
            share = remaining_total
        else:
            share = _binomial(rng, remaining_total, 1.0 / buckets_left)
        remaining_total -= share
        level = 0
        remaining = share
        while remaining > 0 and level < sketch.bits:
            taken = _binomial(rng, remaining, 0.5)
            if level == sketch.bits - 1:
                taken = remaining
            if taken > 0:
                sketch._packed |= 1 << (bucket * sketch.bits + level)
            remaining -= taken
            level += 1


#: Shapes the oracle runs over: the paper's 40, the heavy-hitters item
#: and n operators, a narrow field, and odd ones around the word edges.
_ORACLE_SHAPES = [(40, 32), (16, 32), (8, 32), (40, 8), (3, 4), (7, 17)]

#: Exact-regime boundaries: empty, the scalar/vector switch, the limit.
_BOUNDARY_COUNTS = [0, 1, 47, 48, 49, 511, 512, 513]

_key_token = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70), st.text(max_size=4)
)


class TestWeightedInsertionOracle:
    """``insert_count`` and the batched builders against their references."""

    @given(
        count=st.integers(min_value=513, max_value=10**7),
        shape=st.sampled_from(_ORACLE_SHAPES),
        key=st.lists(_key_token, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_binomial_regime_matches_the_halving_loop(self, count, shape, key):
        expected = FMSketch(*shape)
        _reference_bulk_insert(expected, count, *key)
        sketch = FMSketch(*shape)
        sketch.insert_count(count, *key)
        assert sketch == expected

    @given(
        count=st.integers(min_value=513, max_value=10**7),
        shape=st.sampled_from(_ORACLE_SHAPES),
        label=st.text(max_size=6),
        node=st.integers(min_value=0, max_value=2**40),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_binomial_regime_matches_the_halving_loop(
        self, count, shape, label, node
    ):
        expected = FMSketch(*shape)
        _reference_bulk_insert(expected, count, label, node, 7)
        batch = counted_sketches(*shape, (label,), [count], [node], [7])
        assert batch == [expected]
        if shape[1] == 32:
            rows = counted_matrix(*shape, (label,), [count], [node], [7])
            assert rows.tolist() == [sketch_to_row(expected).tolist()]

    @pytest.mark.parametrize(
        "num_bitmaps, bits", _ORACLE_SHAPES + [(1, 1), (2, 64), (2, 70)]
    )
    def test_boundary_counts_match_insert_count(self, num_bitmaps, bits):
        counts = _BOUNDARY_COUNTS * 2
        nodes = list(range(len(counts)))
        epochs = [3] * len(counts)
        expected = []
        for count, node in zip(counts, nodes):
            sketch = FMSketch(num_bitmaps, bits)
            sketch.insert_count(count, "sum", node, 3)
            expected.append(sketch)
        assert (
            counted_sketches(num_bitmaps, bits, ("sum",), counts, nodes, epochs)
            == expected
        )
        if bits == 32:
            rows = counted_matrix(num_bitmaps, bits, ("sum",), counts, nodes, epochs)
            assert rows.tolist() == [sketch_to_row(s).tolist() for s in expected]

    def test_slices_and_a_cell_larger_than_a_slice(self, monkeypatch):
        """Many slices per call, and cells that overflow one on their own."""
        rng = random.Random(5)
        counts = [rng.randrange(0, 513) for _ in range(200)] + [512, 511]
        nodes = [rng.randrange(600) for _ in counts]
        epochs = [rng.randrange(1000) for _ in counts]
        expected = []
        for count, node, epoch in zip(counts, nodes, epochs):
            sketch = FMSketch(40, 32)
            sketch.insert_count(count, "sum", node, epoch)
            expected.append(sketch)
        monkeypatch.setattr(fm, "_INSERT_SLICE_ITEMS", 300)
        assert counted_sketches(40, 32, ("sum",), counts, nodes, epochs) == expected
        rows = counted_matrix(40, 32, ("sum",), counts, nodes, epochs)
        assert rows.tolist() == [sketch_to_row(s).tolist() for s in expected]

    def test_negative_count_raises_the_scalar_error(self):
        with pytest.raises(SketchError) as scalar:
            FMSketch().insert_count(-1, "x")
        for build in (counted_sketches, counted_matrix):
            with pytest.raises(SketchError) as batch:
                build(40, 32, ("x",), [5, -1], [1, 2])
            assert str(batch.value) == str(scalar.value)

    def test_empty_and_mismatched_columns(self):
        assert counted_sketches(40, 32, ("x",), [], []) == []
        assert counted_matrix(40, 32, ("x",), [], []).shape == (0, 40)
        with pytest.raises(SketchError):
            counted_matrix(40, 32, ("x",), [1, 2], [1])
        zeros = np.zeros(3, dtype=np.int64)
        assert not counted_matrix(8, 32, ("x",), zeros, [1, 2, 3]).any()
