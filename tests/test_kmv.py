"""Tests for the KMV sketch (the accuracy-preserving ⊕ operator)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from odi import check_odi

from repro.errors import ConfigurationError, SketchError
from repro.multipath.kmv import KMVSketch, k_for_relative_error


class TestExactRegime:
    def test_exact_below_k(self):
        sketch = KMVSketch(k=64)
        sketch.insert_count(40, "e")
        assert sketch.is_exact
        assert sketch.estimate() == 40.0

    def test_duplicates_not_double_counted(self):
        sketch = KMVSketch(k=64)
        sketch.insert("a")
        sketch.insert("a")
        sketch.insert("b")
        assert sketch.estimate() == 2.0

    def test_union_of_disjoint_exact(self):
        a = KMVSketch(k=64)
        a.insert_count(10, "x")
        b = KMVSketch(k=64)
        b.insert_count(15, "y")
        assert a.fuse(b).estimate() == 25.0

    def test_union_of_identical_idempotent(self):
        a = KMVSketch(k=64)
        a.insert_count(30, "same")
        assert a.fuse(a).estimate() == 30.0


class TestApproxRegime:
    def test_saturation_flag(self):
        sketch = KMVSketch(k=8)
        sketch.insert_count(100, "s")
        assert not sketch.is_exact

    @pytest.mark.parametrize("count", [5_000, 50_000])
    def test_estimate_accuracy(self, count):
        errors = []
        for seed in range(6):
            sketch = KMVSketch(k=128)
            sketch.insert_count(count, "acc", seed)
            errors.append(abs(sketch.estimate() - count) / count)
        # std ~ 1/sqrt(126) ~ 9%; mean absolute error well under 20%.
        assert sum(errors) / len(errors) < 0.2

    def test_accuracy_preserved_under_union(self):
        # Definition 1: X(eps) ⊕ Y(eps) estimates X + Y within eps.
        errors = []
        for seed in range(6):
            a = KMVSketch(k=128)
            a.insert_count(20_000, "u1", seed)
            b = KMVSketch(k=128)
            b.insert_count(30_000, "u2", seed)
            fused = a.fuse(b)
            errors.append(abs(fused.estimate() - 50_000) / 50_000)
        assert sum(errors) / len(errors) < 0.2

    def test_bulk_path_deterministic(self):
        a = KMVSketch(k=32)
        a.insert_count(1_000_000, "bulk")
        b = KMVSketch(k=32)
        b.insert_count(1_000_000, "bulk")
        assert a == b


class TestFusion:
    def test_odi(self):
        sketches = []
        for key in ("p", "q", "r"):
            sketch = KMVSketch(k=16)
            sketch.insert_count(100, key)
            sketches.append(sketch)
        assert check_odi(lambda x, y: x.fuse(y), sketches)

    def test_mixed_k_uses_smaller(self):
        a = KMVSketch(k=16)
        b = KMVSketch(k=64)
        assert a.fuse(b).k == 16

    def test_negative_count_rejected(self):
        with pytest.raises(SketchError):
            KMVSketch().insert_count(-5, "x")

    def test_k_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            KMVSketch(k=1)


class TestSizing:
    def test_words_bounded_by_k(self):
        sketch = KMVSketch(k=16)
        sketch.insert_count(10_000, "w")
        assert sketch.words() <= 1 + 2 * 16

    def test_k_for_relative_error(self):
        assert k_for_relative_error(0.5) >= 4
        assert k_for_relative_error(0.1) > k_for_relative_error(0.5)
        with pytest.raises(ConfigurationError):
            k_for_relative_error(0.0)


class TestProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=500), min_size=1, max_size=5
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_union_equals_bulk_insert(self, counts):
        # Fusing per-key sketches equals inserting everything into one.
        union = None
        combined = KMVSketch(k=32)
        for index, count in enumerate(counts):
            sketch = KMVSketch(k=32)
            sketch.insert_count(count, "piece", index)
            combined.insert_count(count, "piece", index)
            union = sketch if union is None else union.fuse(sketch)
        assert union == combined
