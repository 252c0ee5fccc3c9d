"""Tests for the declarative query layer (predicates, windows, parsing)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.count import CountAggregate
from repro.aggregates.minmax import MinAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.errors import ConfigurationError
from repro.network.failures import GlobalLoss, NoLoss
from repro.network.links import Channel
from repro.query import (
    AGGREGATE_FACTORIES,
    ContinuousQuery,
    FilteredAggregate,
    WhereClause,
    WindowedReadings,
    parse_query,
)


def sawtooth(node, epoch):
    """A deterministic per-(node, epoch) reading in [0, 10)."""
    return float((node * 7 + epoch * 3) % 10)


class TestWindowedReadings:
    def test_last_is_source(self):
        window = WindowedReadings(sawtooth, size=4, op="LAST")
        assert window(3, 9) == sawtooth(3, 9)

    def test_mean_over_window(self):
        window = WindowedReadings(sawtooth, size=3, op="MEAN")
        expected = (sawtooth(2, 3) + sawtooth(2, 4) + sawtooth(2, 5)) / 3
        assert window(2, 5) == pytest.approx(expected)

    def test_window_fills_from_epoch_zero(self):
        window = WindowedReadings(sawtooth, size=10, op="SUM")
        # At epoch 2 only epochs 0..2 exist.
        expected = sum(sawtooth(1, e) for e in range(3))
        assert window(1, 2) == pytest.approx(expected)

    def test_min_max_ops(self):
        low = WindowedReadings(sawtooth, size=5, op="MIN")
        high = WindowedReadings(sawtooth, size=5, op="MAX")
        assert low(4, 10) <= high(4, 10)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowedReadings(sawtooth, size=0)
        with pytest.raises(ConfigurationError):
            WindowedReadings(sawtooth, size=3, op="MEDIAN")

    @given(
        size=st.integers(min_value=1, max_value=12),
        epoch=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_mean_within_source_range(self, size, epoch):
        window = WindowedReadings(sawtooth, size=size, op="MEAN")
        assert 0.0 <= window(5, epoch) < 10.0

    @staticmethod
    def _naive(size, op, node, epoch, segment_start=0):
        """The reference: re-reduce the whole window, one cell at a time."""
        from repro.query import _WINDOW_OPS

        start = max(0, epoch - size + 1, segment_start)
        values = [sawtooth(node, e) for e in range(start, epoch + 1)]
        return _WINDOW_OPS[op](values)

    @pytest.mark.parametrize("op", ["MEAN", "SUM", "MIN", "MAX", "LAST"])
    def test_rolling_deque_identical_to_naive(self, op):
        """The O(1) rolling window must match naive re-reduction exactly
        across sequential, repeated, gapped, and backward accesses."""
        window = WindowedReadings(sawtooth, size=4, op=op)
        pattern = [0, 1, 1, 2, 3, 4, 4, 7, 8, 2, 3, 20, 21, 5, 6, 6, 7]
        for epoch in pattern:
            for node in (1, 2, 9):
                assert window(node, epoch) == self._naive(4, op, node, epoch), (
                    f"{op} diverged at node={node} epoch={epoch}"
                )

    @given(
        size=st.integers(min_value=1, max_value=6),
        epochs=st.lists(
            st.integers(min_value=0, max_value=25), min_size=1, max_size=30
        ),
        churn_at=st.integers(min_value=0, max_value=30),
        rejoin=st.integers(min_value=0, max_value=25),
    )
    @settings(max_examples=40, deadline=None)
    def test_rolling_deque_identical_under_random_access(
        self, size, epochs, churn_at, rejoin
    ):
        """Random access, with node 3 dying and rejoining at ``rejoin``
        part-way through: every value is the naive reduction over the
        node's current segment, and node 4 never notices."""
        from types import SimpleNamespace

        window = WindowedReadings(sawtooth, size=size, op="MEAN")
        segment = 0
        for index, epoch in enumerate(epochs):
            if index == churn_at:
                for died, joined in (([3], []), ([], [3])):
                    window.on_membership_change(
                        SimpleNamespace(died=died, joined=joined, epoch=rejoin)
                    )
                segment = rejoin
            # A rejoined node is read from its rejoin epoch on.
            epoch = max(epoch, segment)
            assert window.batch([3, 4], epoch) == [
                self._naive(size, "MEAN", 3, epoch, segment),
                self._naive(size, "MEAN", 4, epoch),
            ]
            assert window(3, epoch) == self._naive(size, "MEAN", 3, epoch, segment)

    @staticmethod
    def _spied_source():
        """A block-capable source logging its ``block`` and ``__call__`` reads."""
        blocks, cells = [], []

        class Source:
            def __call__(self, node, epoch):
                cells.append((node, epoch))
                return sawtooth(node, epoch)

            def block(self, nodes, epochs):
                blocks.append((tuple(nodes), tuple(epochs)))
                return np.array(
                    [[sawtooth(node, epoch) for node in nodes] for epoch in epochs],
                    dtype=np.float64,
                ).reshape(len(epochs), len(nodes))

        return Source(), blocks, cells

    def test_rolling_is_constant_source_calls_per_epoch(self):
        """A scalar window read is one source block over its window and no
        per-cell call, repeated or not."""
        source, blocks, cells = self._spied_source()
        window = WindowedReadings(source, size=10, op="SUM")
        for epoch in range(50):
            window(2, epoch)
            window(2, epoch)
        assert cells == []
        assert blocks == [
            ((2,), tuple(range(max(0, epoch - 9), epoch + 1)))
            for epoch in range(50)
            for _ in range(2)
        ]

    @pytest.mark.parametrize("op", ["MEAN", "SUM", "MIN", "MAX", "LAST"])
    def test_batch_identical_to_per_node_calls(self, op):
        """``batch`` must serve the values of per-node calls on a twin
        window across sequential, repeated, gapped and backward epochs,
        whether or not the source has a batch form of its own."""
        from repro.datasets.streams import UniformReadings

        nodes = [1, 2, 9, 40]
        pattern = [0, 1, 1, 2, 3, 4, 4, 7, 8, 2, 3, 20, 21, 5, 6, 6, 7]
        for source in (sawtooth, UniformReadings(0, 50, seed=3)):
            batched = WindowedReadings(source, size=4, op=op)
            scalar = WindowedReadings(source, size=4, op=op)
            for epoch in pattern:
                expected = [scalar(node, epoch) for node in nodes]
                assert batched.batch(nodes, epoch) == expected, (op, epoch)
                # Another node set at the same epoch.
                assert batched.batch([2, 77], epoch) == [
                    scalar(2, epoch), scalar(77, epoch)
                ]

    def test_batch_steady_state_reads_one_source_row_per_epoch(self):
        """Every ``batch`` is exactly one source block over the window, in
        any access order, and never a per-cell call."""
        source, blocks, cells = self._spied_source()
        window = WindowedReadings(source, size=3, op="MEAN")
        nodes = [4, 5, 6]
        pattern = [0, 1, 1, 2, 5, 3, 9]
        for epoch in pattern:
            window.batch(nodes, epoch)
        assert cells == []
        assert blocks == [
            (tuple(nodes), tuple(range(max(0, epoch - 2), epoch + 1)))
            for epoch in pattern
        ]

    def test_batch_respects_churn_segments(self):
        from types import SimpleNamespace

        nodes = [1, 2, 3]
        batched = WindowedReadings(sawtooth, size=4, op="SUM")
        scalar = WindowedReadings(sawtooth, size=4, op="SUM")
        for epoch in range(12):
            if epoch == 5:
                update = SimpleNamespace(died=[2], joined=[], epoch=5)
                batched.on_membership_change(update)
                scalar.on_membership_change(update)
            if epoch == 8:
                update = SimpleNamespace(died=[], joined=[2], epoch=8)
                batched.on_membership_change(update)
                scalar.on_membership_change(update)
            live = [n for n in nodes if n != 2 or not 5 <= epoch < 8]
            assert batched.batch(live, epoch) == [
                scalar(node, epoch) for node in live
            ]
        assert batched.checkpoint_state() == scalar.checkpoint_state()


class TestFilteredAggregate:
    def test_non_matching_contributes_neutral(self):
        aggregate = FilteredAggregate(SumAggregate(), lambda v: v >= 5)
        assert aggregate.tree_local(1, 0, 3.0) == 0
        assert aggregate.tree_local(1, 0, 7.0) == 7

    def test_exact_filters(self):
        aggregate = FilteredAggregate(CountAggregate(), lambda v: v > 5)
        assert aggregate.exact([1.0, 6.0, 9.0]) == 2.0

    def test_exact_with_nothing_matching(self):
        count = FilteredAggregate(CountAggregate(), lambda v: False)
        assert count.exact([1.0, 2.0]) == 0.0
        low = FilteredAggregate(MinAggregate(), lambda v: False)
        assert low.exact([1.0]) == float("inf")

    def test_counts_contributors_disabled(self):
        aggregate = FilteredAggregate(CountAggregate(), lambda v: v > 5)
        assert not aggregate.synopsis_counts_contributors()

    def test_name_is_tagged(self):
        aggregate = FilteredAggregate(SumAggregate(), lambda v: True)
        assert aggregate.name == "sum[filtered]"


class TestWhereClause:
    def test_comparators(self):
        assert WhereClause(">", 5.0).predicate()(6.0)
        assert not WhereClause(">", 5.0).predicate()(5.0)
        assert WhereClause("<=", 5.0).predicate()(5.0)
        assert WhereClause("!=", 5.0).predicate()(4.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WhereClause("~", 5.0)


class TestParseQuery:
    def test_minimal(self):
        query = parse_query("SELECT count")
        assert query.select == "count"
        assert query.where is None
        assert query.window is None

    def test_full(self):
        query = parse_query("SELECT avg WHERE value > 20 WINDOW 5 MEAN")
        assert query.select == "avg"
        assert query.where == WhereClause(">", 20.0)
        assert query.window == 5
        assert query.window_op == "MEAN"

    def test_case_insensitive_keywords(self):
        query = parse_query("select max where VALUE <= 3 window 2")
        assert query.select == "max"
        assert query.where == WhereClause("<=", 3.0)
        assert query.window == 2

    def test_window_without_op_defaults_to_mean(self):
        assert parse_query("SELECT sum WINDOW 3").window_op == "MEAN"

    def test_render_roundtrip(self):
        text = "SELECT avg WHERE value > 20 WINDOW 5 MEAN"
        assert parse_query(text).render() == text

    def test_errors(self):
        for bad in (
            "",
            "PICK count",
            "SELECT histogram",
            "SELECT sum WHERE temp > 3",
            "SELECT sum WHERE value > banana",
            "SELECT sum WINDOW many",
            "SELECT sum EXTRA",
        ):
            with pytest.raises(ConfigurationError):
                parse_query(bad)

    def test_every_registered_aggregate_parses(self):
        for name in AGGREGATE_FACTORIES:
            assert parse_query(f"SELECT {name}").select == name

    def test_select_targets_cover_aggregate_registry(self):
        """The SELECT surface *is* the aggregate registry — including the
        holistic aggregates (distinct, moments)."""
        from repro.registry import AGGREGATES

        assert set(AGGREGATE_FACTORIES) == set(AGGREGATES.available())
        for name in ("distinct", "moments"):
            assert parse_query(f"SELECT {name}").select == name


class TestGroupByClause:
    def test_parse_and_render_roundtrip(self):
        text = "SELECT avg WHERE value > 20 GROUP BY region:2 WINDOW 5 MEAN"
        query = parse_query(text)
        assert query.group_by == "region:2"
        assert query.render() == text

    def test_bare_group_by(self):
        query = parse_query("SELECT count GROUP BY grid")
        assert query.group_by == "grid"
        assert query.render() == "SELECT count GROUP BY grid"

    def test_non_groupable_aggregate_names_clause_and_supported_set(self):
        with pytest.raises(ConfigurationError) as err:
            parse_query("SELECT quantiles:0.05:0.5 GROUP BY region:1")
        message = str(err.value)
        assert "GROUP BY region:1" in message
        assert "quantiles:0.05:0.5" in message
        # The supported set is spelled out, not just alluded to.
        for name in ("avg", "count", "distinct", "max", "min", "sum"):
            assert name in message

    def test_malformed_region_spec_names_clause(self):
        with pytest.raises(ConfigurationError) as err:
            parse_query("SELECT avg GROUP BY region:zz")
        assert "region:zz" in str(err.value)
        assert "NAME[:DEPTH[:BUDGET]]" in str(err.value)

    def test_unknown_hierarchy_lists_registered(self):
        with pytest.raises(ConfigurationError) as err:
            parse_query("SELECT avg GROUP BY voronoi:2")
        message = str(err.value)
        assert "voronoi" in message
        assert "region" in message and "grid" in message

    def test_missing_spec_after_group_by(self):
        with pytest.raises(ConfigurationError):
            parse_query("SELECT avg GROUP BY")
        with pytest.raises(ConfigurationError):
            parse_query("SELECT avg GROUP region:1")

    def test_build_without_deployment_is_actionable(self):
        query = parse_query("SELECT avg GROUP BY region:1")
        with pytest.raises(ConfigurationError) as err:
            query.build(sawtooth)
        assert "deployment" in str(err.value)

    def test_grouped_build_over_tag(self, small_scenario, small_tree):
        aggregate, readings = parse_query(
            "SELECT count GROUP BY region:1"
        ).build(sawtooth, deployment=small_scenario.deployment)
        scheme = TagScheme(small_scenario.deployment, small_tree, aggregate)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(0, channel, readings)
        assert outcome.estimate == small_scenario.deployment.num_sensors
        groups = aggregate.last_group_evaluations
        assert sum(groups.values()) == outcome.estimate


class TestQueriesOverSchemes:
    def test_filtered_count_over_tag(self, small_scenario, small_tree):
        aggregate, readings = parse_query(
            "SELECT count WHERE value >= 5"
        ).build(sawtooth)
        scheme = TagScheme(small_scenario.deployment, small_tree, aggregate)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(0, channel, readings)
        truth = aggregate.exact(
            [sawtooth(n, 0) for n in small_scenario.deployment.sensor_ids]
        )
        assert outcome.estimate == truth
        assert 0 < truth < small_scenario.deployment.num_sensors

    def test_windowed_sum_over_tag(self, small_scenario, small_tree):
        aggregate, readings = parse_query("SELECT sum WINDOW 4 MEAN").build(
            sawtooth
        )
        scheme = TagScheme(small_scenario.deployment, small_tree, aggregate)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(6, channel, readings)
        truth = aggregate.exact(
            [readings(n, 6) for n in small_scenario.deployment.sensor_ids]
        )
        # Sum truncates windowed means to ints at each node.
        assert outcome.estimate == pytest.approx(truth, rel=0.2)

    def test_filtered_query_over_td_under_loss(self, small_scenario, small_tree):
        aggregate, readings = parse_query(
            "SELECT count WHERE value >= 5"
        ).build(sawtooth)
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 2),
        )
        scheme = TributaryDeltaScheme(small_scenario.deployment, graph, aggregate)
        estimates = []
        truths = []
        for epoch in range(6):
            channel = Channel(small_scenario.deployment, GlobalLoss(0.2), seed=3)
            outcome = scheme.run_epoch(epoch, channel, readings)
            estimates.append(outcome.estimate)
            truths.append(
                aggregate.exact(
                    [
                        sawtooth(n, epoch)
                        for n in small_scenario.deployment.sensor_ids
                    ]
                )
            )
        mean_estimate = sum(estimates) / len(estimates)
        mean_truth = sum(truths) / len(truths)
        assert mean_estimate == pytest.approx(mean_truth, rel=0.4)

    def test_distinct_query_over_tag(self, small_scenario, small_tree):
        aggregate, readings = parse_query("SELECT distinct").build(sawtooth)
        scheme = TagScheme(small_scenario.deployment, small_tree, aggregate)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(0, channel, readings)
        truth = aggregate.exact(
            [sawtooth(n, 0) for n in small_scenario.deployment.sensor_ids]
        )
        # The tree side of distinct-count is exact under no loss.
        assert outcome.estimate == truth
        assert truth <= 10  # sawtooth readings live in [0, 10)

    def test_moments_query_over_tag(self, small_scenario, small_tree):
        aggregate, readings = parse_query("SELECT moments").build(sawtooth)
        scheme = TagScheme(small_scenario.deployment, small_tree, aggregate)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(0, channel, readings)
        truth = aggregate.exact(
            [sawtooth(n, 0) for n in small_scenario.deployment.sensor_ids]
        )
        assert outcome.estimate == pytest.approx(truth)
        assert truth > 0  # the sawtooth is not constant

    def test_filtered_windowed_distinct_composes(self, small_scenario, small_tree):
        aggregate, readings = parse_query(
            "SELECT distinct WHERE value >= 2 WINDOW 3 MAX"
        ).build(sawtooth)
        scheme = TagScheme(small_scenario.deployment, small_tree, aggregate)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(5, channel, readings)
        truth = aggregate.exact(
            [readings(n, 5) for n in small_scenario.deployment.sensor_ids]
        )
        assert outcome.estimate == truth

    def test_adaptation_feedback_counts_all_relays(self, small_scenario, small_tree):
        """A highly selective query must not shrink the %-contributing
        feedback: filtered nodes still relay and register."""
        aggregate, readings = parse_query(
            "SELECT count WHERE value >= 9"
        ).build(sawtooth)
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 1),
        )
        scheme = TributaryDeltaScheme(small_scenario.deployment, graph, aggregate)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(0, channel, readings)
        sensors = small_scenario.deployment.num_sensors
        assert outcome.contributing == sensors
        assert outcome.contributing_estimate == pytest.approx(
            sensors, rel=0.35
        )
        # ... while the answer reflects only the matching sensors.
        assert outcome.estimate < sensors / 2
