"""Tests for the Tributary-Delta quantiles scheme and its synopsis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import TDGraph, initial_modes_by_level
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import ConfigurationError
from repro.frequent.gk import GKSummary
from repro.frequent.td_quantiles import (
    QuantileSynopsis,
    TributaryDeltaQuantiles,
    convert_summary,
    synopsis_from_readings,
)
from repro.network.failures import GlobalLoss, NoLoss
from repro.network.links import Channel
from repro.tree.construction import build_bushy_tree


def keyed(values, weight=1.0, salt=0):
    return [(hash((salt, index)) & ((1 << 62) - 1), float(v), weight)
            for index, v in enumerate(values)]


class TestQuantileSynopsis:
    def test_small_input_keeps_everything(self):
        synopsis = QuantileSynopsis.from_weighted_values(10, keyed([1, 2, 3]))
        assert sorted(synopsis.values()) == [1.0, 2.0, 3.0]
        assert synopsis.population_weight == 3.0

    def test_capacity_enforced(self):
        synopsis = QuantileSynopsis.from_weighted_values(
            5, keyed(range(100))
        )
        assert len(synopsis.entries) == 5
        assert synopsis.population_weight == 100.0

    def test_merge_is_idempotent(self):
        synopsis = QuantileSynopsis.from_weighted_values(8, keyed(range(20)))
        again = synopsis.merge(synopsis)
        assert again.entries == synopsis.entries
        assert again.population_weight == synopsis.population_weight

    def test_merge_is_commutative_and_associative(self):
        a = QuantileSynopsis.from_weighted_values(8, keyed(range(10), salt=1))
        b = QuantileSynopsis.from_weighted_values(8, keyed(range(10), salt=2))
        c = QuantileSynopsis.from_weighted_values(8, keyed(range(10), salt=3))
        assert a.merge(b).entries == b.merge(a).entries
        assert a.merge(b).merge(c).entries == a.merge(b.merge(c)).entries

    def test_duplicate_insensitive_entry_union(self):
        """The ODI core: fusing along two different paths cannot change the
        surviving entry set."""
        shared = synopsis_from_readings(5, 0, [1.0, 2.0, 3.0], capacity=8)
        left = synopsis_from_readings(6, 0, [4.0], capacity=8).merge(shared)
        right = synopsis_from_readings(7, 0, [5.0], capacity=8).merge(shared)
        once = left.merge(right)
        twice = left.merge(right).merge(shared)
        assert once.entries == twice.entries

    def test_quantile_reads_weighted_median(self):
        entries = keyed([10.0], weight=9.0) + keyed([20.0], weight=1.0, salt=9)
        synopsis = QuantileSynopsis.from_weighted_values(8, entries)
        assert synopsis.quantile(0.5) == 10.0
        assert synopsis.quantile(1.0) == 20.0

    def test_quantile_validation(self):
        synopsis = QuantileSynopsis.empty(4)
        with pytest.raises(ConfigurationError):
            synopsis.quantile(0.5)
        filled = QuantileSynopsis.from_weighted_values(4, keyed([1.0]))
        with pytest.raises(ConfigurationError):
            filled.quantile(1.5)

    def test_words_scale_with_entries(self):
        small = QuantileSynopsis.from_weighted_values(16, keyed(range(3)))
        large = QuantileSynopsis.from_weighted_values(16, keyed(range(12)))
        assert large.words() > small.words()

    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            QuantileSynopsis.empty(0)

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60
        ),
        capacity=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantile_always_a_surviving_value(self, values, capacity):
        synopsis = QuantileSynopsis.from_weighted_values(
            capacity, keyed(values)
        )
        result = synopsis.quantile(0.5)
        assert result in synopsis.values()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_merge_union_property(self, data):
        """Survivors of a merge are exactly the k smallest of the union."""
        values_a = data.draw(
            st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30)
        )
        values_b = data.draw(
            st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30)
        )
        a = QuantileSynopsis.from_weighted_values(8, keyed(values_a, salt=1))
        b = QuantileSynopsis.from_weighted_values(8, keyed(values_b, salt=2))
        merged = a.merge(b)
        union = sorted(set(a.entries) | set(b.entries))
        assert merged.entries == tuple(union[:8])


class TestSynopsisFromReadings:
    def test_deterministic_in_node_and_epoch(self):
        a = synopsis_from_readings(3, 7, [1.0, 2.0], capacity=8)
        b = synopsis_from_readings(3, 7, [1.0, 2.0], capacity=8)
        assert a.entries == b.entries

    def test_different_nodes_differ(self):
        a = synopsis_from_readings(3, 7, [1.0, 2.0], capacity=8)
        b = synopsis_from_readings(4, 7, [1.0, 2.0], capacity=8)
        assert a.entries != b.entries


class TestConvertSummary:
    def test_empty_summary_converts_to_none(self):
        summary = GKSummary.from_values([])
        assert convert_summary(summary, 1, 0, capacity=8) is None

    def test_weight_preserves_population(self):
        summary = GKSummary.from_values(range(100))
        synopsis = convert_summary(
            summary, 1, 0, capacity=64, representatives=10
        )
        assert synopsis.population_weight == pytest.approx(100.0)
        # 10 representatives, each weight 10.
        assert all(weight == 10.0 for _, _, _, weight in synopsis.entries)

    def test_representatives_track_distribution(self):
        summary = GKSummary.from_values(range(1000))
        synopsis = convert_summary(
            summary, 2, 0, capacity=64, representatives=20
        )
        median = synopsis.quantile(0.5)
        assert median == pytest.approx(500, abs=75)

    def test_deterministic(self):
        summary = GKSummary.from_values(range(50))
        a = convert_summary(summary, 1, 3, capacity=16)
        b = convert_summary(summary, 1, 3, capacity=16)
        assert a.entries == b.entries

    def test_validation(self):
        summary = GKSummary.from_values([1.0])
        with pytest.raises(ConfigurationError):
            convert_summary(summary, 1, 0, capacity=8, representatives=0)


def _uniform_items(node, epoch):
    """60 readings per node spread over [0, 100), distinct per node."""
    return [float((node * 37 + i * 13) % 100) for i in range(60)]


class TestTributaryDeltaQuantiles:
    @pytest.fixture()
    def graph(self, small_scenario, small_tree):
        return TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 1),
        )

    def _truth(self, deployment, phi):
        values = sorted(
            value
            for node in deployment.sensor_ids
            for value in _uniform_items(node, 0)
        )
        return values[min(len(values) - 1, int(phi * len(values)))]

    def test_all_tree_matches_gk_error(self, small_scenario, small_tree):
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, -1),
        )
        scheme = TributaryDeltaQuantiles(graph, epsilon=0.05, sample_size=64)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(0, channel, _uniform_items)
        assert outcome.summary is not None
        for phi in (0.25, 0.5, 0.75):
            estimate = outcome.quantile(phi)
            truth = self._truth(small_scenario.deployment, phi)
            assert estimate == pytest.approx(truth, abs=12.0)

    def test_mixed_delta_answers_quantiles(self, small_scenario, graph):
        scheme = TributaryDeltaQuantiles(
            graph, epsilon=0.05, sample_size=256, representatives=32
        )
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(0, channel, _uniform_items)
        assert outcome.synopsis is not None
        median = outcome.quantile(0.5)
        truth = self._truth(small_scenario.deployment, 0.5)
        assert median == pytest.approx(truth, abs=20.0)

    def test_all_multipath_robust_to_loss(self, small_scenario, small_tree):
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(
                small_scenario.rings, small_scenario.rings.depth
            ),
        )
        scheme = TributaryDeltaQuantiles(graph, sample_size=128)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.25), seed=3)
        outcome = scheme.run_epoch(0, channel, _uniform_items)
        median = outcome.quantile(0.5)
        truth = self._truth(small_scenario.deployment, 0.5)
        # Multi-path keeps the answer in the right region despite 25% loss.
        assert median == pytest.approx(truth, abs=25.0)

    def test_mixed_delta_tracks_the_tree_under_loss(self):
        """The Count robustness story restated for a holistic aggregate:
        under Global(0.25) the Section 5 + 6.3 combination keeps the median
        about as close to the truth as the tree's GK algorithm alone."""
        scenario = make_synthetic_scenario(num_sensors=80, seed=6)
        tree = build_bushy_tree(scenario.rings, seed=6)
        truth = self._truth(scenario.deployment, 0.5)

        def median_error(level, **sizes):
            graph = TDGraph(
                scenario.rings,
                tree,
                initial_modes_by_level(scenario.rings, level),
            )
            scheme = TributaryDeltaQuantiles(graph, epsilon=0.05, **sizes)
            errors = []
            for epoch in range(6):
                channel = Channel(
                    scenario.deployment, GlobalLoss(0.25), seed=11
                )
                outcome = scheme.run_epoch(epoch, channel, _uniform_items)
                errors.append(abs(outcome.quantile(0.5) - truth))
            return sum(errors) / len(errors)

        mixed = median_error(3, sample_size=192, representatives=24)
        assert mixed <= median_error(-1) + 1.0

    def test_total_loss_yields_empty_outcome(self, small_scenario, graph):
        scheme = TributaryDeltaQuantiles(graph)
        channel = Channel(small_scenario.deployment, GlobalLoss(1.0), seed=0)
        outcome = scheme.run_epoch(0, channel, _uniform_items)
        with pytest.raises(ConfigurationError):
            outcome.quantile(0.5)

    def test_one_transmission_per_node(self, small_scenario, graph):
        scheme = TributaryDeltaQuantiles(graph)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        scheme.run_epoch(0, channel, _uniform_items)
        assert channel.log.transmissions == small_scenario.deployment.num_sensors

    def test_validation(self, graph):
        with pytest.raises(ConfigurationError):
            TributaryDeltaQuantiles(graph, epsilon=0.0)
        with pytest.raises(ConfigurationError):
            TributaryDeltaQuantiles(graph, sample_size=0)
        with pytest.raises(ConfigurationError):
            TributaryDeltaQuantiles(graph, tree_attempts=0)

    def test_quantiles_batch(self, small_scenario, graph):
        scheme = TributaryDeltaQuantiles(graph, sample_size=128)
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        outcome = scheme.run_epoch(0, channel, _uniform_items)
        results = outcome.quantiles([0.25, 0.5, 0.75])
        assert results == sorted(results)
