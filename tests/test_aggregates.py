"""Tests for the Count/Sum/Min/Max/Average/Sample aggregates, and the
registry-wide scalar == block contract of every local op and conversion."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import assert_golden

from repro.aggregates.average import AverageAggregate
from repro.aggregates.base import FMColumn, fuse_all, merge_all
from repro.aggregates.composite import CompositeAggregate
from repro.aggregates.count import ContributingCount, CountAggregate
from repro.aggregates.distinct import DistinctCountAggregate
from repro.aggregates.frequent import HeavyHittersAggregate
from repro.aggregates.minmax import MaxAggregate, MinAggregate
from repro.aggregates.moments import MomentsAggregate
from repro.aggregates.sample import UniformSampleAggregate, quantile_from_sample
from repro.aggregates.sum_ import SumAggregate
from repro.aggregates.workload import WorkloadAggregate, WorkloadReadings
from repro.api import RunConfig, build_scenario, run_config_result
from repro.datasets.streams import UniformReadings
from repro.errors import ConfigurationError, SketchError
from repro.frequent.mp_fi import KMVOperator
from repro.kernels.sd import fm_counts, fm_rows
from repro.kernels.td import (
    FM,
    OBJECT,
    extremum_values,
    leaf_kind,
    precompute_conversions,
)
from repro.multipath.fm import (
    _EXACT_INSERT_LIMIT,
    FMSketch,
    counted_matrix,
    single_item_matrix_block,
)
from repro.query import FilteredAggregate, parse_query
from repro.registry import (
    AGGREGATES,
    build_aggregate,
    build_regions,
    register_aggregate,
)
from repro.network.simulator import gather_reading_block
from repro.spatial import GroupedAggregate, RegionFilteredAggregate

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
            lambda: fm_counts(aggregate.column(), range(len(row)), matrix).tolist()
        )
        truth = self._outcome(lambda: aggregate.exact(row))
        truth_array = self._outcome(
            lambda: aggregate.exact_array(matrix[0], range(len(row)))
        )
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
        assert fm_counts(CountAggregate().column(), [1, 2, 3], readings).tolist() == [
            [1, 1, 1]
        ]
        for factory in (CountAggregate, MinAggregate, AverageAggregate):
            assert factory().exact_array(readings[0], [1, 2, 3]) == factory().exact(
                readings[0].tolist()
            )
        # Min's partials are its float64 extremum column; a sample declares
        # no column, so the kernel keeps its own partials as an object column.
        assert extremum_values(
            MinAggregate(), [1, 2, 3], [0], readings
        ).tolist() == [[4.0, 2.0, 9.0]]
        assert UniformSampleAggregate(k=4).column() is None
        assert leaf_kind(UniformSampleAggregate(k=4)) == OBJECT


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


# -- scalar == block, registry-wide ------------------------------------------

_SOURCE = UniformReadings(10, 100, seed=5)


def _hot(value: float) -> bool:
    return value > 50


def _plain(aggregate):
    return aggregate, _SOURCE


def _windowed_filtered_avg():
    return parse_query("SELECT avg WHERE value > 50 WINDOW 5 MEAN").build(_SOURCE)


def _workload():
    hot_avg, hot_readings = _windowed_filtered_avg()
    aggregate = WorkloadAggregate(
        [
            ("count", CountAggregate()),
            ("sum", SumAggregate()),
            ("hot", hot_avg),
            ("heavy", HeavyHittersAggregate(0.05)),
        ]
    )
    return aggregate, WorkloadReadings(
        [_SOURCE, _SOURCE, hot_readings, _SOURCE]
    )


def test_workload_batch_asks_each_distinct_source_once():
    """Three of the four slots read the same source object: one block read
    serves them, the window reads one block of its own, no slot reads a
    single cell, and every slot's row is still its scalar values."""
    calls = []
    block = UniformReadings.block

    def block_spy(self, nodes, epochs):
        calls.append(self)
        return block(self, nodes, epochs)

    def scalar_spy(self, node, epoch):
        raise AssertionError("a workload slot read one cell")

    _, readings = _workload()
    twin = UniformReadings(10, 100, seed=5)  # equal, but another object
    readings.add_component(twin)
    nodes = [3, 8, 1, 20]
    for epoch in (0, 1, 2, 7, 3):
        expected = [readings(node, epoch) for node in nodes]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(UniformReadings, "block", block_spy)
            patch.setattr(UniformReadings, "__call__", scalar_spy)
            del calls[:]
            blocks = readings.block(nodes, [epoch])
        assert list(zip(*(slot[0].tolist() for slot in blocks))) == expected
        # Once for the shared source, once inside the window, once for its
        # twin.
        assert calls == [_SOURCE, _SOURCE, twin]


@functools.lru_cache(maxsize=None)
def _regions():
    """A depth-2 quadtree over a 100-sensor deployment."""
    scenario = build_scenario(RunConfig(scheme="TAG", num_sensors=100))
    hierarchy, _, _ = build_regions("region:2", scenario.topology.deployment)
    return hierarchy


def _grouped_filtered_avg():
    avg, readings = parse_query("SELECT avg WHERE value > 50 WINDOW 3").build(_SOURCE)
    return GroupedAggregate(avg, _regions(), 2), readings


def _region_filtered_sum():
    hierarchy = _regions()
    return RegionFilteredAggregate(
        SumAggregate(), hierarchy, hierarchy.region_of(3, 1)
    ), _SOURCE


#: label -> ``() -> (aggregate, reading function)``: every registered
#: aggregate plus each wrapper the query layer can put around one.
BLOCK_SUBJECTS = {
    **{
        name: (lambda name=name: _plain(build_aggregate(name)))
        for name in AGGREGATES.available()
    },
    "filtered-sum": lambda: _plain(FilteredAggregate(SumAggregate(), _hot)),
    "windowed-filtered-avg": _windowed_filtered_avg,
    "composite": lambda: _plain(
        CompositeAggregate(
            [CountAggregate(), SumAggregate(), AverageAggregate()], primary=1
        )
    ),
    "workload": _workload,
    # Not packable: the block forms loop over the scalar forms.
    "heavy-hitters-kmv": lambda: _plain(
        HeavyHittersAggregate(
            0.05, operator=KMVOperator(), n_operator=KMVOperator(k=128)
        )
    ),
    "contributing": lambda: _plain(ContributingCount()),
    # Keyed by the sensor's node id, not by its reading.
    "grouped-filtered-avg": _grouped_filtered_avg,
    "region-filtered-sum": _region_filtered_sum,
    # Readings above the exact-insert limit: local SG is binomial too.
    "sum-binomial": lambda: (
        SumAggregate(),
        UniformReadings(_EXACT_INSERT_LIMIT + 1, 4000, seed=5),
    ),
}

_NODES = [3, 8, 1, 20, 14, 9, 33]
_EPOCHS = [4, 5, 6]


def _fold(aggregate, synopses):
    """The pairwise left fold ``synopsis_fuse_many`` must equal."""
    result = synopses[0]
    for synopsis in synopses[1:]:
        result = aggregate.synopsis_fuse(result, synopsis)
    return result


@pytest.mark.parametrize("label", sorted(BLOCK_SUBJECTS))
class TestBlockFormsEqualScalarForms:
    """Cell ``i`` of every block form is the scalar form of cell ``i``."""

    def _block(self, readings):
        """The block's reading matrix (a workload's: one per slot), with one
        epoch where a ``value > 50`` predicate rejects every reading."""
        block = gather_reading_block(readings, _NODES, _EPOCHS)
        for matrix in block if isinstance(block, tuple) else (block,):
            matrix[1] = 10.0
        return block

    @staticmethod
    def _slots(aggregate, block):
        """Each leaf slot beside the reading matrix it reads: the fused
        kernel asks leaves for block forms, never a wrapper."""
        return [
            (leaf, block if column is None else block[column])
            for leaf, column in aggregate.leaf_slots()
        ]

    def test_local_blocks(self, label):
        aggregate, readings = BLOCK_SUBJECTS[label]()
        empty = gather_reading_block(readings, [], _EPOCHS)
        none = gather_reading_block(readings, _NODES, [])
        for (leaf, matrix), (_, no_nodes), (_, no_epochs) in zip(
            self._slots(aggregate, self._block(readings)),
            self._slots(aggregate, empty),
            self._slots(aggregate, none),
        ):
            for block_form, scalar_form in (
                (leaf.tree_local_block, leaf.tree_local),
                (leaf.synopsis_local_block, leaf.synopsis_local),
            ):
                assert block_form(_NODES, _EPOCHS, matrix) == [
                    [scalar_form(node, epoch, value) for node, value in zip(_NODES, row)]
                    for epoch, row in zip(_EPOCHS, matrix.tolist())
                ]
                # No nodes, and no epochs: still one (empty) row per epoch.
                assert block_form([], _EPOCHS, no_nodes) == [[] for _ in _EPOCHS]
                assert block_form(_NODES, [], no_epochs) == []

    def test_synopsis_words_batch(self, label):
        aggregate, readings = BLOCK_SUBJECTS[label]()
        block = self._block(readings)
        if isinstance(block, tuple):  # a workload's cell is one value per slot
            block = [list(zip(*rows)) for rows in zip(*(m.tolist() for m in block))]
        else:
            block = block.tolist()
        synopses = [
            aggregate.synopsis_local(node, epoch, value)
            for epoch, row in zip(_EPOCHS, block)
            for node, value in zip(_NODES, row)
        ]
        synopses.append(fuse_all(aggregate, synopses))
        assert aggregate.synopsis_words_batch(synopses) == [
            aggregate.synopsis_words(synopsis) for synopsis in synopses
        ]
        assert aggregate.synopsis_words_batch([]) == []

    def test_convert_block(self, label):
        aggregate, readings = BLOCK_SUBJECTS[label]()
        locals_ = [
            aggregate.tree_local(node, epoch, readings(node, epoch))
            for epoch in range(6)
            for node in range(1, 101)
        ]
        partials = [
            locals_[0],
            merge_all(aggregate, locals_[:5]),
            # 600 readings of 10..100: every count, sum and n0 inside lands
            # in the binomial regime of ``insert_count``.
            merge_all(aggregate, locals_),
            aggregate.tree_empty(),
            locals_[0],  # a chaos duplicate converts twice
        ]
        assert len(locals_) > _EXACT_INSERT_LIMIT
        senders = [7, 2, 11, 5, 7]
        epochs = [3, 3, 4, 4, 3]
        assert aggregate.convert_block(partials, senders, epochs) == [
            aggregate.convert(partial, sender, epoch)
            for partial, sender, epoch in zip(partials, senders, epochs)
        ]
        assert aggregate.convert_block([], [], []) == []

    def test_synopsis_fuse_many(self, label):
        aggregate, readings = BLOCK_SUBJECTS[label]()
        cells = [
            aggregate.synopsis_local(node, epoch, readings(node, epoch))
            for epoch in range(4)
            for node in range(1, 41)
        ]
        partial = merge_all(
            aggregate,
            [
                aggregate.tree_local(node, 3, readings(node, 3))
                for node in range(41, 71)
            ],
        )
        # What a delta node's inbox holds: its own synopsis, synopses other
        # nodes already fused (several heavy-hitter classes, promotions on
        # the way), a conversion, a filtered-out sender's neutral synopsis,
        # a replayed delivery.
        inputs = [
            cells[0],
            _fold(aggregate, cells[1:40]),
            aggregate.convert(partial, 7, 3),
            aggregate.synopsis_empty(),
            _fold(aggregate, cells[40:]),
            cells[0],
        ]
        for count in (1, 2, 6):
            assert aggregate.synopsis_fuse_many(inputs[:count]) == _fold(
                aggregate, inputs[:count]
            ), count
        assert fuse_all(aggregate, inputs) == _fold(aggregate, inputs)
        with pytest.raises(ValueError):
            fuse_all(aggregate, [])


@pytest.mark.parametrize(
    "aggregate, negative",
    [
        (SumAggregate(), -1),
        (CountAggregate(), -1),
        (AverageAggregate(), (-1, 1)),
        (FilteredAggregate(SumAggregate(), _hot), -1),
        (CompositeAggregate([CountAggregate(), SumAggregate()]), (1, -1)),
    ],
    ids=["sum", "count", "avg", "filtered-sum", "composite"],
)
def test_negative_partial_raises_the_same_error_from_both_forms(
    aggregate, negative
):
    valid = aggregate.tree_local(1, 0, 60.0)
    with pytest.raises(SketchError) as scalar:
        aggregate.convert(negative, 2, 0)
    with pytest.raises(SketchError) as block:
        aggregate.convert_block([valid, negative], [1, 2], [0, 0])
    assert str(block.value) == str(scalar.value)


@pytest.mark.parametrize(
    "narrow, wide",
    [
        (SumAggregate(8), SumAggregate(40)),
        (build_aggregate("distinct"), DistinctCountAggregate(num_bitmaps=8)),
        (AverageAggregate(8), AverageAggregate(40)),
        (MomentsAggregate(8), MomentsAggregate(40)),
        (
            CompositeAggregate([CountAggregate(), SumAggregate(8)]),
            CompositeAggregate([CountAggregate(), SumAggregate(40)]),
        ),
        (
            FilteredAggregate(SumAggregate(8), _hot),
            FilteredAggregate(SumAggregate(40), _hot),
        ),
    ],
    ids=["sum", "distinct", "avg", "moments", "composite", "filtered-sum"],
)
def test_mismatched_fm_shapes_raise_the_same_error_from_both_fusions(
    narrow, wide
):
    a = narrow.synopsis_local(1, 0, 60.0)
    b = wide.synopsis_local(2, 0, 70.0)
    with pytest.raises(SketchError) as pairwise:
        narrow.synopsis_fuse(a, b)
    with pytest.raises(SketchError) as nary:
        narrow.synopsis_fuse_many([a, a, b])
    assert str(nary.value) == str(pairwise.value)


class TestContributingCount:
    """The Section 4.2 piggyback as a Count: every form sets exactly the bits
    the hand-written piggyback builds set (40 bitmaps of 32 bits, local items
    keyed ``"contrib"``, converted counts ``"contrib-conv"``)."""

    NODES = [1, 4, 9, 23]
    EPOCHS = [0, 7, 31]
    # Both FM insertion regimes: exact up to the limit, binomial above.
    COUNTS = [1, 3, 40, _EXACT_INSERT_LIMIT + 88]

    @pytest.fixture
    def piggyback(self):
        return ContributingCount()

    def _cells(self):
        senders = [n for _ in self.EPOCHS for n in self.NODES]
        epochs = [e for e in self.EPOCHS for _ in self.NODES]
        counts = [self.COUNTS[i % len(self.COUNTS)] for i in range(len(senders))]
        return counts, senders, epochs

    def test_scalar_forms(self, piggyback):
        for node in self.NODES:
            for epoch in self.EPOCHS:
                old = FMSketch(40)
                old.insert("contrib", node, epoch)
                assert piggyback.synopsis_local(node, epoch, None) == old
        counts, senders, epochs = self._cells()
        for count, sender, epoch in zip(counts, senders, epochs):
            old = FMSketch(40)
            old.insert_count(count, "contrib-conv", sender, epoch)
            assert piggyback.convert(count, sender, epoch) == old

    def test_block_forms(self, piggyback):
        # A Count ignores what its sensors read.
        readings = np.zeros((len(self.EPOCHS), len(self.NODES)))
        assert piggyback.synopsis_local_block(self.NODES, self.EPOCHS, readings) == [
            [piggyback.synopsis_local(node, epoch, None) for node in self.NODES]
            for epoch in self.EPOCHS
        ]
        counts, senders, epochs = self._cells()
        assert piggyback.convert_block(counts, senders, epochs) == [
            piggyback.convert(count, sender, epoch)
            for count, sender, epoch in zip(counts, senders, epochs)
        ]

    def test_packed_forms(self, piggyback):
        column = piggyback.column()
        assert column.bitmaps == 40
        assert (
            fm_rows(column, self.NODES, self.EPOCHS, None)
            == single_item_matrix_block(40, ("contrib",), self.NODES, self.EPOCHS)
        ).all()
        counts, senders, epochs = self._cells()
        # The kernel's frontier conversion of a query without FM leaves is
        # the piggyback's section alone.
        assert (
            precompute_conversions(MinAggregate(), piggyback, None, counts, senders, epochs)
            == counted_matrix(40, ("contrib-conv",), counts, senders, epochs)
        ).all()

    def test_its_synopsis_counts_its_contributors(self, piggyback):
        assert piggyback.synopsis_counts_contributors()
        # One unkeyed item per sensor: an FM column without a weight.
        assert piggyback.column() == FMColumn(40, "contrib", "contrib-conv")
        assert leaf_kind(piggyback) == FM


class TestFuseCollections:
    """``MultipathFrequentItems.fuse_collections`` == the pairwise fold."""

    @staticmethod
    def _collection(aggregate, first_node, streams):
        """One node's class collection: SG per stream, folded pairwise."""
        engine = aggregate._engine
        collection = {}
        for offset, items in enumerate(streams):
            synopsis = engine.generate(first_node + offset, 0, items)
            collection = aggregate.synopsis_fuse(
                collection, {synopsis.klass: synopsis}
            )
        return collection

    def test_empty_collections_are_the_identity(self):
        aggregate = HeavyHittersAggregate(0.05)
        engine = aggregate._engine
        one = self._collection(aggregate, 1, [[4, 4, 9]])
        assert engine.fuse_collections([{}]) == {}
        assert engine.fuse_collections([{}, {}, {}]) == {}
        assert engine.fuse_collections([{}, one, {}]) == one
        assert engine.fuse_collections([one, {}]) == one
        with pytest.raises(ValueError):
            engine.fuse_collections([])

    def test_promotions_happen_and_the_fold_order_matters(self):
        """The case the n-ary form must not shortcut: one
        ``fuse_into_classes`` over every input prunes differently."""
        aggregate = HeavyHittersAggregate(0.05)
        engine = aggregate._engine
        collections = [
            self._collection(
                aggregate, 10 * index, [[item % 7, item % 5] for item in range(index, index + 6)]
            )
            for index in range(1, 7)
        ]
        fused = engine.fuse_collections(collections)
        assert fused == _fold(aggregate, collections)
        assert max(fused) > max(max(c) for c in collections if c)
        flat = engine.fuse_into_classes(
            [s for collection in collections for s in collection.values()]
        )
        assert flat != fused

    @given(
        st.lists(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=12),
                    min_size=1,
                    max_size=24,
                ),
                max_size=5,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_pairwise_fold(self, nodes):
        aggregate = HeavyHittersAggregate(0.05)
        collections = [
            self._collection(aggregate, 10 * index, streams)
            for index, streams in enumerate(nodes)
        ]
        fused = aggregate._engine.fuse_collections(collections)
        assert fused == _fold(aggregate, collections)
        assert aggregate.synopsis_fuse_many(collections) == fused


# -- end-to-end goldens -------------------------------------------------------

#: Every registered aggregate's spec, in registry order.
_GOLDEN_AGGREGATES = (
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "moments",
    "distinct",
    "sample",
    "quantiles",
    "quantiles_qd",
    "heavy_hitters:0.05",
)

#: case -> RunConfig overrides (``region=`` cases are hand-wired, below).
GOLDEN_CASES = {
    **{
        f"{name}/{scheme}": dict(aggregate=name, scheme=scheme)
        for name in _GOLDEN_AGGREGATES
        for scheme in ("TAG", "SD", "TD")
    },
    **{
        f"{name}/TD/oracle": dict(aggregate=name, scheme="TD", use_batch=False)
        for name in _GOLDEN_AGGREGATES
    },
    "where-avg": dict(scheme="TD", query="SELECT avg WHERE value > 50"),
    "where-windowed-max": dict(
        scheme="TD", query="SELECT max WHERE value > 40 WINDOW 5 MEAN"
    ),
    "groupby-avg": dict(scheme="TD", query="SELECT avg GROUP BY region:2"),
    "groupby-min": dict(scheme="TD", query="SELECT min GROUP BY region:1"),
    "region-avg/TAG": dict(scheme="TAG", region=True),
    "region-avg/TD": dict(scheme="TD", region=True),
    "workload": dict(
        scheme="TD",
        queries=[
            {"name": "mean", "aggregate": "avg"},
            {"name": "spread", "aggregate": "moments"},
            {"name": "low", "aggregate": "min"},
        ],
    ),
}

def _golden_result(case):
    overrides = dict(GOLDEN_CASES[case])
    region = overrides.pop("region", False)
    config = RunConfig(
        num_sensors=40,
        epochs=8,
        converge_epochs=6,
        failure="global:0.25",
        reading="uniform:10:100:3",
        **overrides,
    )
    if not region:
        return run_config_result(config)
    scenario = build_scenario(config)
    hierarchy, depth, _ = build_regions("region:1", scenario.topology.deployment)
    readings = scenario.source
    aggregate = RegionFilteredAggregate(
        AverageAggregate(), hierarchy, hierarchy.regions_at(depth)[0]
    )
    scheme = scenario.build_scheme(aggregate)
    scenario.converge(scheme, readings)
    return scenario.build_simulator(scheme).run(
        config.epochs, readings, start_epoch=config.start_epoch
    )


class TestAggregateGoldens:
    """Every aggregate, filter, grouping and workload run, byte for byte."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_epoch_records_are_unchanged(self, case):
        # The serialized epoch records (the TD cases and their scalar-oracle
        # twins share a digest: blocked == per-epoch).
        result = _golden_result(case)
        assert_golden(f"aggregates/{case}", result.epochs, run=result)


# -- regressions ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["min", "max"])
@pytest.mark.parametrize("scheme", ["TAG", "TD"])
def test_min_max_truth_is_zero_once_no_sensor_is_alive(scheme, name):
    """Every sensor dies: the truth is 0.0, like every other aggregate's
    and like the estimate of an epoch in which nothing arrived."""
    result = run_config_result(
        RunConfig(
            scheme=scheme,
            num_sensors=40,
            epochs=4,
            converge_epochs=4,
            failure="global:0.2",
            reading="uniform:10:100:1",
            aggregate=name,
            churn="deaths:2:60:1",
        )
    )
    last = result.epochs[-1]
    assert (last.estimate, last.true_value) == (0.0, 0.0)
    assert build_aggregate(name).exact([]) == 0.0


def test_where_names_the_missing_neutral_elements():
    """WHERE on an aggregate without neutral elements fails like GROUP BY:
    one actionable ConfigurationError, not a raw NotImplementedError."""

    class NoNeutral(MaxAggregate):
        name = "no-neutral"

        def tree_empty(self):
            raise NotImplementedError("no neutral tree partial")

    register_aggregate("no-neutral")(NoNeutral)
    try:
        for keyword, clause in (
            ("WHERE", "WHERE value > 5"),
            ("GROUP BY", "GROUP BY region:1"),
        ):
            with pytest.raises(ConfigurationError) as error:
                run_config_result(
                    RunConfig(
                        scheme="TAG",
                        num_sensors=40,
                        epochs=2,
                        query=f"SELECT no-neutral {clause}",
                    )
                )
            assert str(error.value) == (
                f"{keyword} requires an aggregate with neutral elements; "
                "'no-neutral' has none"
            )
    finally:
        AGGREGATES.unregister("no-neutral")
