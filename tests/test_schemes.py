"""Tests for the TAG, SD and TD aggregation schemes."""

from __future__ import annotations

import pytest

from repro.aggregates.count import CountAggregate
from repro.aggregates.minmax import MaxAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import ConstantReadings, UniformReadings
from repro.network.failures import GlobalLoss, NoLoss
from repro.network.links import Channel
from repro.network.simulator import EpochSimulator


@pytest.fixture()
def readings():
    return ConstantReadings(1.0)


def run_once(deployment, failure, scheme, readings, epoch=0, seed=0):
    channel = Channel(deployment, failure, seed=seed)
    return scheme.run_epoch(epoch, channel, readings), channel


class TestTagScheme:
    def test_exact_without_loss(self, small_scenario, small_tree, readings):
        scheme = TagScheme(small_scenario.deployment, small_tree, CountAggregate())
        outcome, _ = run_once(small_scenario.deployment, NoLoss(), scheme, readings)
        assert outcome.estimate == small_scenario.deployment.num_sensors
        assert outcome.contributing == small_scenario.deployment.num_sensors
        assert outcome.contributing_estimate == outcome.contributing

    def test_sum_exact_without_loss(self, small_scenario, small_tree):
        scheme = TagScheme(small_scenario.deployment, small_tree, SumAggregate())
        readings = UniformReadings(1, 50, seed=3)
        outcome, _ = run_once(small_scenario.deployment, NoLoss(), scheme, readings)
        assert outcome.estimate == scheme.exact_answer([0], readings)[0][0]

    def test_total_loss_yields_nothing(self, small_scenario, small_tree, readings):
        scheme = TagScheme(small_scenario.deployment, small_tree, CountAggregate())
        outcome, _ = run_once(
            small_scenario.deployment, GlobalLoss(1.0), scheme, readings
        )
        assert outcome.estimate == 0.0
        assert outcome.contributing == 0

    def test_loss_drops_subtrees(self, small_scenario, small_tree, readings):
        scheme = TagScheme(small_scenario.deployment, small_tree, CountAggregate())
        outcome, _ = run_once(
            small_scenario.deployment, GlobalLoss(0.3), scheme, readings, seed=5
        )
        assert 0 < outcome.estimate < small_scenario.deployment.num_sensors
        # Tree counting is exact over whatever survived.
        assert outcome.estimate == outcome.contributing

    def test_one_transmission_per_node(self, small_scenario, small_tree, readings):
        scheme = TagScheme(small_scenario.deployment, small_tree, CountAggregate())
        _, channel = run_once(small_scenario.deployment, NoLoss(), scheme, readings)
        assert channel.log.transmissions == small_scenario.deployment.num_sensors

    def test_retransmission_increases_contributing(
        self, small_scenario, small_tree, readings
    ):
        single = TagScheme(
            small_scenario.deployment, small_tree, CountAggregate(), attempts=1
        )
        triple = TagScheme(
            small_scenario.deployment, small_tree, CountAggregate(), attempts=3
        )
        total_single = 0
        total_triple = 0
        for epoch in range(10):
            out_s, _ = run_once(
                small_scenario.deployment, GlobalLoss(0.3), single, readings, epoch
            )
            out_t, _ = run_once(
                small_scenario.deployment, GlobalLoss(0.3), triple, readings, epoch
            )
            total_single += out_s.contributing
            total_triple += out_t.contributing
        assert total_triple > total_single


class TestSDScheme:
    def test_estimates_with_approximation_error(
        self, small_scenario, readings
    ):
        scheme = SynopsisDiffusionScheme(
            small_scenario.deployment, small_scenario.rings, CountAggregate()
        )
        outcome, _ = run_once(small_scenario.deployment, NoLoss(), scheme, readings)
        truth = small_scenario.deployment.num_sensors
        assert outcome.contributing == truth  # everyone accounted for
        assert abs(outcome.estimate - truth) / truth < 0.5  # sketch error only

    def test_one_transmission_per_node(self, small_scenario, readings):
        scheme = SynopsisDiffusionScheme(
            small_scenario.deployment, small_scenario.rings, CountAggregate()
        )
        _, channel = run_once(small_scenario.deployment, NoLoss(), scheme, readings)
        assert channel.log.transmissions == small_scenario.deployment.num_sensors

    def test_robust_to_loss(self, medium_scenario, readings):
        scheme = SynopsisDiffusionScheme(
            medium_scenario.deployment, medium_scenario.rings, CountAggregate()
        )
        contributing = []
        for epoch in range(5):
            outcome, _ = run_once(
                medium_scenario.deployment, GlobalLoss(0.2), scheme, readings, epoch
            )
            contributing.append(outcome.contributing)
        fraction = sum(contributing) / (5 * medium_scenario.deployment.num_sensors)
        assert fraction > 0.85

    def test_max_aggregate_piggybacks_count(self, small_scenario):
        scheme = SynopsisDiffusionScheme(
            small_scenario.deployment, small_scenario.rings, MaxAggregate()
        )
        readings = UniformReadings(1, 99, seed=2)
        outcome, _ = run_once(small_scenario.deployment, NoLoss(), scheme, readings)
        assert outcome.estimate == scheme.exact_answer([0], readings)[0][0]
        truth = small_scenario.deployment.num_sensors
        assert abs(outcome.contributing_estimate - truth) / truth < 0.5


class TestTDScheme:
    def make_td(self, scenario, tree, level, aggregate=None):
        graph = TDGraph(
            scenario.rings, tree, initial_modes_by_level(scenario.rings, level)
        )
        scheme = TributaryDeltaScheme(
            scenario.deployment, graph, aggregate or CountAggregate()
        )
        return scheme, graph

    def test_all_tree_matches_tag(self, small_scenario, small_tree, readings):
        scheme, _ = self.make_td(small_scenario, small_tree, -1)
        tag = TagScheme(small_scenario.deployment, small_tree, CountAggregate())
        for epoch in range(3):
            td_out, _ = run_once(
                small_scenario.deployment, GlobalLoss(0.2), scheme, readings, epoch
            )
            tag_out, _ = run_once(
                small_scenario.deployment, GlobalLoss(0.2), tag, readings, epoch
            )
            assert td_out.estimate == tag_out.estimate

    def test_all_multipath_contributing_matches_sd(
        self, small_scenario, small_tree, readings
    ):
        depth = small_scenario.rings.depth
        scheme, _ = self.make_td(small_scenario, small_tree, depth)
        sd = SynopsisDiffusionScheme(
            small_scenario.deployment, small_scenario.rings, CountAggregate()
        )
        for epoch in range(3):
            td_out, _ = run_once(
                small_scenario.deployment, GlobalLoss(0.2), scheme, readings, epoch
            )
            sd_out, _ = run_once(
                small_scenario.deployment, GlobalLoss(0.2), sd, readings, epoch
            )
            # Same channel draws, same topology: identical survivor sets.
            assert td_out.contributing == sd_out.contributing

    def test_mixed_mode_exact_without_loss_at_bs_tree_side(
        self, small_scenario, small_tree, readings
    ):
        scheme, graph = self.make_td(small_scenario, small_tree, 1)
        outcome, _ = run_once(
            small_scenario.deployment, NoLoss(), scheme, readings
        )
        truth = small_scenario.deployment.num_sensors
        assert outcome.contributing == truth
        # Mixed estimate: some exact tree mass + sketch error on the rest.
        assert abs(outcome.estimate - truth) / truth < 0.5

    def test_mixed_beats_pure_multipath_at_no_loss(
        self, medium_scenario, medium_tree, readings
    ):
        # With a small delta the bulk of the count arrives exactly, so the
        # estimate error must be below the full-sketch error on average.
        td, _ = self.make_td(medium_scenario, medium_tree, 1)
        sd = SynopsisDiffusionScheme(
            medium_scenario.deployment, medium_scenario.rings, CountAggregate()
        )
        truth = medium_scenario.deployment.num_sensors
        td_err = 0.0
        sd_err = 0.0
        for epoch in range(8):
            td_out, _ = run_once(
                medium_scenario.deployment, NoLoss(), td, readings, epoch
            )
            sd_out, _ = run_once(
                medium_scenario.deployment, NoLoss(), sd, readings, epoch
            )
            td_err += abs(td_out.estimate - truth)
            sd_err += abs(sd_out.estimate - truth)
        assert td_err < sd_err

    def test_missing_stats_reported(self, small_scenario, small_tree, readings):
        scheme, graph = self.make_td(small_scenario, small_tree, 1)
        outcome, _ = run_once(
            small_scenario.deployment, GlobalLoss(0.3), scheme, readings
        )
        stats = outcome.extra.get("missing_stats")
        assert stats, "boundary M nodes must report tributary statistics"
        assert all(value >= 0 for value in stats.values())

    def test_latency_is_ring_depth(self, small_scenario, small_tree):
        scheme, _ = self.make_td(small_scenario, small_tree, 1)
        assert scheme.latency_epochs == small_scenario.rings.depth
