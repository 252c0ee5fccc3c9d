"""Tests for the Count/Sum/Min/Max/Average/Sample aggregates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.average import AverageAggregate
from repro.aggregates.base import fuse_all, merge_all
from repro.aggregates.count import CountAggregate
from repro.aggregates.minmax import MaxAggregate, MinAggregate
from repro.aggregates.sample import UniformSampleAggregate, quantile_from_sample
from repro.aggregates.sum_ import SumAggregate
from repro.errors import ConfigurationError

ALL_AGGREGATES = [
    CountAggregate,
    SumAggregate,
    MinAggregate,
    MaxAggregate,
    AverageAggregate,
    UniformSampleAggregate,
]


class TestTreeSide:
    def test_count_tree_exact(self):
        aggregate = CountAggregate()
        partials = [aggregate.tree_local(n, 0, 1.0) for n in range(1, 11)]
        assert aggregate.tree_eval(merge_all(aggregate, partials)) == 10.0

    def test_sum_tree_exact(self):
        aggregate = SumAggregate()
        partials = [aggregate.tree_local(n, 0, n * 2) for n in range(1, 6)]
        assert aggregate.tree_eval(merge_all(aggregate, partials)) == 30.0

    def test_sum_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            SumAggregate().tree_local(1, 0, -3.0)

    def test_min_max(self):
        low, high = MinAggregate(), MaxAggregate()
        values = [5.0, 2.0, 9.0]
        low_partials = [low.tree_local(i, 0, v) for i, v in enumerate(values)]
        high_partials = [high.tree_local(i, 0, v) for i, v in enumerate(values)]
        assert low.tree_eval(merge_all(low, low_partials)) == 2.0
        assert high.tree_eval(merge_all(high, high_partials)) == 9.0

    def test_average_tree_exact(self):
        aggregate = AverageAggregate()
        partials = [aggregate.tree_local(n, 0, v) for n, v in enumerate([2, 4, 6])]
        assert aggregate.tree_eval(merge_all(aggregate, partials)) == 4.0

    @pytest.mark.parametrize("factory", ALL_AGGREGATES)
    def test_tree_words_positive(self, factory):
        aggregate = factory()
        partial = aggregate.tree_local(1, 0, 5.0)
        assert aggregate.tree_words(partial) >= 1


class TestSynopsisSide:
    def test_count_synopsis_estimates(self):
        aggregate = CountAggregate()
        synopses = [aggregate.synopsis_local(n, 0, 1.0) for n in range(1, 301)]
        estimate = aggregate.synopsis_eval(fuse_all(aggregate, synopses))
        assert abs(estimate - 300) / 300 < 0.4

    def test_sum_synopsis_estimates(self):
        aggregate = SumAggregate()
        synopses = [aggregate.synopsis_local(n, 0, 10.0) for n in range(1, 101)]
        estimate = aggregate.synopsis_eval(fuse_all(aggregate, synopses))
        assert abs(estimate - 1000) / 1000 < 0.4

    def test_duplicate_fusion_harmless(self):
        aggregate = CountAggregate()
        synopsis = aggregate.synopsis_local(1, 0, 1.0)
        fused = aggregate.synopsis_fuse(synopsis, synopsis)
        assert aggregate.synopsis_eval(fused) == aggregate.synopsis_eval(synopsis)

    def test_minmax_synopsis_exact(self):
        aggregate = MaxAggregate()
        synopses = [aggregate.synopsis_local(i, 0, v) for i, v in enumerate([1.0, 7.0, 3.0])]
        assert aggregate.synopsis_eval(fuse_all(aggregate, synopses)) == 7.0

    def test_sample_synopsis_uniformity(self):
        aggregate = UniformSampleAggregate(k=16)
        synopses = [
            aggregate.synopsis_local(n, 0, float(n)) for n in range(1, 101)
        ]
        sample = fuse_all(aggregate, synopses)
        assert len(sample.entries) == 16
        # Sampled values are a subset of the inputs.
        assert all(1 <= value <= 100 for value in sample.values())


class TestConversion:
    def test_count_conversion_valid(self):
        aggregate = CountAggregate()
        sketch = aggregate.convert(250, sender=7, epoch=3)
        assert abs(aggregate.synopsis_eval(sketch) - 250) / 250 < 0.4

    def test_sum_conversion_valid(self):
        aggregate = SumAggregate()
        sketch = aggregate.convert(5_000, sender=7, epoch=3)
        assert abs(aggregate.synopsis_eval(sketch) - 5_000) / 5_000 < 0.4

    def test_conversion_deterministic(self):
        aggregate = CountAggregate()
        assert aggregate.convert(42, 1, 2) == aggregate.convert(42, 1, 2)

    def test_minmax_conversion_identity(self):
        assert MinAggregate().convert(3.5, 1, 0) == 3.5

    def test_sample_conversion_identity(self):
        aggregate = UniformSampleAggregate(k=4)
        sample = aggregate.tree_local(1, 0, 2.0)
        assert aggregate.convert(sample, 1, 0) is sample


class TestMixedEval:
    def test_count_mixed(self):
        aggregate = CountAggregate()
        fused = aggregate.synopsis_local(1, 0, 1.0)
        assert aggregate.mixed_eval([40, 60], fused) == pytest.approx(
            100 + fused.estimate()
        )

    def test_count_mixed_no_synopsis(self):
        assert CountAggregate().mixed_eval([40, 60], None) == 100.0

    def test_min_mixed(self):
        aggregate = MinAggregate()
        assert aggregate.mixed_eval([4.0, 2.0], 3.0) == 2.0

    def test_average_mixed_no_synopsis(self):
        aggregate = AverageAggregate()
        assert aggregate.mixed_eval([(10, 2), (20, 3)], None) == pytest.approx(6.0)

    def test_empty_mixed(self):
        assert CountAggregate().mixed_eval([], None) == 0.0


class TestExact:
    @pytest.mark.parametrize(
        "factory,readings,expected",
        [
            (CountAggregate, [1.0, 1.0, 1.0], 3.0),
            (SumAggregate, [1.0, 2.0, 3.0], 6.0),
            (MinAggregate, [4.0, 2.0], 2.0),
            (MaxAggregate, [4.0, 2.0], 4.0),
            (AverageAggregate, [2.0, 4.0], 3.0),
        ],
    )
    def test_exact(self, factory, readings, expected):
        assert factory().exact(readings) == expected


class TestArrayNativePartials:
    """The array path must answer — and fail — like the scalar one."""

    ROWS = [
        [0.0, 1.0, 7.0],
        [0.5, 1.5, 2.5],  # half-to-even: 0, 2, 2
        [3.5, 4.5, 5.49999],
        [-0.0, -0.4, -0.5],  # rounds to (negative) zero: accepted
        [1e6 + 0.5, 2.0**52, 12.0],
        [3.0, -0.6, 1.0],
        [3.0, -2.0, float("nan")],
        [float("nan"), 1.0, 2.0],
        [1.0, float("inf"), -1.0],
        [1.0, 2.0**63, 2.0],  # fits a Python int, not the int64 matrix
        [],
    ]

    @staticmethod
    def _outcome(call):
        try:
            return ("ok", call())
        except (ConfigurationError, ValueError, OverflowError) as error:
            return (type(error), str(error))

    @pytest.mark.parametrize("row", ROWS)
    def test_sum_scalar_and_array_paths_agree(self, row):
        import numpy as np

        aggregate = SumAggregate()
        matrix = np.array([row, row], dtype=np.float64).reshape(2, len(row))
        scalar = self._outcome(
            lambda: [
                [aggregate.tree_local(n, e, r) for n, r in enumerate(row)]
                for e in range(2)
            ]
        )
        array = self._outcome(
            lambda: aggregate.tree_local_matrix(
                range(len(row)), range(2), matrix
            ).tolist()
        )
        truth = self._outcome(lambda: aggregate.exact(row))
        truth_array = self._outcome(lambda: aggregate.exact_array(matrix[0]))
        if 2.0**63 in row:
            # Only the int64 matrix overflows; the scalar path is unbounded.
            assert scalar[0] == "ok"
            assert array[0] is OverflowError and truth_array[0] is OverflowError
            return
        assert array == scalar
        assert truth_array == truth
        if scalar[0] == "ok":
            assert all(type(v) is int for r in array[1] for v in r)

    def test_count_matrix_and_default_exact_array(self):
        import numpy as np

        readings = np.array([[4.0, 2.0, 9.0]])
        assert CountAggregate().tree_local_matrix(
            [1, 2, 3], [0], readings
        ).tolist() == [[1, 1, 1]]
        for factory in (CountAggregate, MinAggregate, AverageAggregate):
            assert factory().exact_array(readings[0]) == factory().exact(
                readings[0].tolist()
            )
        with pytest.raises(NotImplementedError):
            MinAggregate().tree_local_matrix([1, 2, 3], [0], readings)


class TestQuantileFromSample:
    def test_median(self):
        aggregate = UniformSampleAggregate(k=200)
        synopses = [
            aggregate.synopsis_local(n, 0, float(n)) for n in range(1, 101)
        ]
        sample = fuse_all(aggregate, synopses)
        median = quantile_from_sample(sample, 0.5)
        assert 1 <= median <= 100

    def test_rejects_bad_phi(self):
        aggregate = UniformSampleAggregate(k=4)
        sample = aggregate.tree_local(1, 0, 2.0)
        with pytest.raises(ConfigurationError):
            quantile_from_sample(sample, 1.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20)
    def test_phi_monotone(self, phi):
        aggregate = UniformSampleAggregate(k=50)
        synopses = [
            aggregate.synopsis_local(n, 0, float(n)) for n in range(1, 51)
        ]
        sample = fuse_all(aggregate, synopses)
        low = quantile_from_sample(sample, 0.0)
        value = quantile_from_sample(sample, phi)
        high = quantile_from_sample(sample, 1.0)
        assert low <= value <= high
