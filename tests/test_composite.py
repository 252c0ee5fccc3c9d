"""Tests for the multi-query CompositeAggregate."""

from __future__ import annotations

import pytest

from repro.aggregates.average import AverageAggregate
from repro.aggregates.composite import CompositeAggregate
from repro.aggregates.count import CountAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import ConstantReadings, UniformReadings
from repro.errors import ConfigurationError
from repro.network.failures import GlobalLoss, NoLoss
from repro.network.links import Channel
from repro.network.simulator import EpochSimulator


def run_once(deployment, failure, scheme, readings, epoch=0, seed=0):
    channel = Channel(deployment, failure, seed=seed)
    return scheme.run_epoch(epoch, channel, readings), channel


def make_composite():
    return CompositeAggregate(
        [CountAggregate(), SumAggregate(), AverageAggregate()], primary=1
    )


class TestConstruction:
    def test_name_concatenates_components(self):
        composite = make_composite()
        assert composite.name == "composite(count+sum+average)"

    def test_component_names_disambiguated(self):
        composite = CompositeAggregate([SumAggregate(), SumAggregate()])
        assert composite.component_names() == ["sum", "sum#2"]

    def test_primary_selection(self):
        composite = make_composite()
        assert isinstance(composite.primary, SumAggregate)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompositeAggregate([])
        with pytest.raises(ConfigurationError):
            CompositeAggregate([CountAggregate()], primary=1)

    def test_evaluations_require_an_epoch(self):
        composite = make_composite()
        with pytest.raises(ConfigurationError):
            composite.evaluations_by_name()


class TestAlgebra:
    def test_tree_merge_componentwise(self):
        composite = make_composite()
        a = composite.tree_local(1, 0, 10.0)
        b = composite.tree_local(2, 0, 20.0)
        merged = composite.tree_merge(a, b)
        assert merged[0] == 2  # count
        assert merged[1] == pytest.approx(30.0)  # sum

    def test_tree_words_add_up(self):
        count, total, average = (
            CountAggregate(),
            SumAggregate(),
            AverageAggregate(),
        )
        composite = CompositeAggregate([count, total, average])
        partial = composite.tree_local(1, 0, 5.0)
        expected = (
            count.tree_words(partial[0])
            + total.tree_words(partial[1])
            + average.tree_words(partial[2])
        )
        assert composite.tree_words(partial) == expected

    def test_synopsis_words_add_up(self):
        count, total = CountAggregate(), SumAggregate()
        composite = CompositeAggregate([count, total])
        synopsis = composite.synopsis_local(3, 0, 5.0)
        expected = count.synopsis_words(synopsis[0]) + total.synopsis_words(
            synopsis[1]
        )
        assert composite.synopsis_words(synopsis) == expected

    def test_exact_is_the_primarys(self):
        assert make_composite().exact([1.0, 2.0, 3.0]) == 6.0  # the sum primary


class TestOverSchemes:
    def test_tag_lossless_all_components_exact(self, small_scenario, small_tree):
        composite = make_composite()
        scheme = TagScheme(small_scenario.deployment, small_tree, composite)
        readings = UniformReadings(1, 50, seed=3)
        outcome, _ = run_once(
            small_scenario.deployment, NoLoss(), scheme, readings
        )
        values = [
            readings(node, 0) for node in small_scenario.deployment.sensor_ids
        ]
        answers = composite.evaluations_by_name()
        assert answers["count"] == len(values)
        assert answers["sum"] == pytest.approx(sum(values))
        assert answers["average"] == pytest.approx(sum(values) / len(values))
        assert outcome.estimate == pytest.approx(sum(values))  # primary

    def test_sd_all_components_approximate(self, small_scenario):
        composite = make_composite()
        scheme = SynopsisDiffusionScheme(
            small_scenario.deployment, small_scenario.rings, composite
        )
        readings = ConstantReadings(2.0)
        outcome, _ = run_once(
            small_scenario.deployment, NoLoss(), scheme, readings
        )
        sensors = small_scenario.deployment.num_sensors
        answers = composite.evaluations_by_name()
        assert answers["count"] == pytest.approx(sensors, rel=0.35)
        assert answers["sum"] == pytest.approx(2.0 * sensors, rel=0.35)
        assert outcome.estimate == answers["sum"]

    def test_td_mixed_components(self, small_scenario, small_tree):
        composite = make_composite()
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 1),
        )
        scheme = TributaryDeltaScheme(
            small_scenario.deployment, graph, composite
        )
        readings = ConstantReadings(1.0)
        outcome, _ = run_once(
            small_scenario.deployment, NoLoss(), scheme, readings
        )
        sensors = small_scenario.deployment.num_sensors
        answers = composite.evaluations_by_name()
        assert answers["count"] == pytest.approx(sensors, rel=0.35)
        assert answers["sum"] == pytest.approx(float(sensors), rel=0.35)
        assert outcome.estimate == answers["sum"]

    def test_one_transmission_per_node_for_all_queries(
        self, small_scenario, small_tree
    ):
        """The point of multi-query sharing: message *count* stays minimal."""
        composite = make_composite()
        scheme = TagScheme(small_scenario.deployment, small_tree, composite)
        _, channel = run_once(
            small_scenario.deployment, NoLoss(), scheme, ConstantReadings(1.0)
        )
        assert channel.log.transmissions == small_scenario.deployment.num_sensors

    def test_composite_words_exceed_single_query_words(
        self, small_scenario, small_tree
    ):
        readings = ConstantReadings(1.0)
        single = TagScheme(
            small_scenario.deployment, small_tree, SumAggregate()
        )
        _, single_channel = run_once(
            small_scenario.deployment, NoLoss(), single, readings
        )
        composite = TagScheme(
            small_scenario.deployment, small_tree, make_composite()
        )
        _, composite_channel = run_once(
            small_scenario.deployment, NoLoss(), composite, readings
        )
        assert (
            composite_channel.log.words_sent > single_channel.log.words_sent
        )

    def test_component_matches_standalone_run_under_loss(
        self, small_scenario, small_tree
    ):
        """Paired check: loss draws ignore payload contents, so the count
        component inside a composite must equal a standalone Count run on
        the same channel seed."""
        readings = ConstantReadings(1.0)
        standalone = TagScheme(
            small_scenario.deployment, small_tree, CountAggregate()
        )
        outcome_alone, _ = run_once(
            small_scenario.deployment, GlobalLoss(0.3), standalone, readings, seed=9
        )
        composite = make_composite()
        bundled = TagScheme(small_scenario.deployment, small_tree, composite)
        run_once(
            small_scenario.deployment, GlobalLoss(0.3), bundled, readings, seed=9
        )
        assert composite.evaluations_by_name()["count"] == pytest.approx(
            outcome_alone.estimate
        )

    def test_td_under_loss_keeps_all_components_reasonable(
        self, small_scenario, small_tree
    ):
        composite = make_composite()
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 2),
        )
        scheme = TributaryDeltaScheme(
            small_scenario.deployment, graph, composite
        )
        readings = ConstantReadings(1.0)
        sensors = small_scenario.deployment.num_sensors
        counts = []
        sums = []
        for epoch in range(8):
            run_once(
                small_scenario.deployment,
                GlobalLoss(0.2),
                scheme,
                readings,
                epoch=epoch,
                seed=4,
            )
            answers = composite.evaluations_by_name()
            counts.append(answers["count"])
            sums.append(answers["sum"])
        assert sum(counts) / len(counts) == pytest.approx(sensors, rel=0.4)
        assert sum(sums) / len(sums) == pytest.approx(float(sensors), rel=0.4)

    def test_shared_sweep_costs_less_energy_than_separate_sweeps(
        self, small_scenario, small_tree
    ):
        """Headers and sweeps amortise across the bundled queries."""

        def energy_uj(aggregate):
            graph = TDGraph(
                small_scenario.rings,
                small_tree,
                initial_modes_by_level(small_scenario.rings, 1),
            )
            scheme = TributaryDeltaScheme(
                small_scenario.deployment, graph, aggregate
            )
            simulator = EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(0.15),
                scheme,
                seed=5,
                adapt_interval=0,
            )
            return simulator.run(10, ConstantReadings(1.0)).energy.total_uj

        shared = energy_uj(make_composite())
        separate = sum(
            energy_uj(aggregate)
            for aggregate in (
                CountAggregate(),
                SumAggregate(),
                AverageAggregate(),
            )
        )
        assert 1 - shared / separate > 0.2
