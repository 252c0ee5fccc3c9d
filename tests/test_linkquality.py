"""Tests for link-quality monitoring and topology maintenance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.streams import ConstantReadings
from repro.errors import ConfigurationError
from repro.network.failures import GlobalLoss, LinkLossTable, NoLoss
from repro.network.links import Channel
from repro.network.linkquality import (
    LinkQualityMonitor,
    ParentSwitch,
    TreeMaintainer,
    feed_monitor_from_channel,
    rebuild_rings,
)
from repro.network.rings import RingsTopology
from repro.tree.construction import build_bushy_tree
from repro.tree.structure import Tree


class TestLinkQualityMonitor:
    def test_prior_before_observations(self):
        monitor = LinkQualityMonitor(prior=0.75)
        assert monitor.quality(1, 2) == 0.75
        assert monitor.observation_count(1, 2) == 0

    def test_ewma_update(self):
        monitor = LinkQualityMonitor(alpha=0.5, prior=1.0)
        assert monitor.observe(1, 2, False) == pytest.approx(0.5)
        assert monitor.observe(1, 2, False) == pytest.approx(0.25)
        assert monitor.observe(1, 2, True) == pytest.approx(0.625)
        assert monitor.observation_count(1, 2) == 3

    def test_links_are_directed(self):
        monitor = LinkQualityMonitor(alpha=0.5, prior=0.5)
        monitor.observe(1, 2, True)
        assert monitor.quality(1, 2) > 0.5
        assert monitor.quality(2, 1) == 0.5

    def test_observed_links_sorted(self):
        monitor = LinkQualityMonitor()
        monitor.observe(3, 1, True)
        monitor.observe(1, 2, True)
        assert monitor.observed_links == [(1, 2), (3, 1)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkQualityMonitor(alpha=0.0)
        with pytest.raises(ConfigurationError):
            LinkQualityMonitor(alpha=1.5)
        with pytest.raises(ConfigurationError):
            LinkQualityMonitor(prior=-0.1)

    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=50),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_estimate_stays_in_unit_interval(self, outcomes, alpha):
        monitor = LinkQualityMonitor(alpha=alpha, prior=0.5)
        for outcome in outcomes:
            estimate = monitor.observe(0, 1, outcome)
            assert 0.0 <= estimate <= 1.0

    @given(runs=st.integers(min_value=5, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_all_failures_drive_estimate_down(self, runs):
        monitor = LinkQualityMonitor(alpha=0.3, prior=0.9)
        for _ in range(runs):
            monitor.observe(0, 1, False)
        assert monitor.quality(0, 1) < 0.9 * (0.7**4)


class TestProbeRound:
    def test_probing_converges_to_true_rate(self, small_scenario):
        monitor = LinkQualityMonitor(alpha=0.1, prior=0.5)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.4), seed=3)
        links = [(1, 2)]
        for epoch in range(200):
            monitor.probe_round(channel, links, epoch)
        assert monitor.quality(1, 2) == pytest.approx(0.6, abs=0.15)

    def test_probes_do_not_perturb_data_draws(self, small_scenario):
        baseline = Channel(small_scenario.deployment, GlobalLoss(0.5), seed=9)
        probed = Channel(small_scenario.deployment, GlobalLoss(0.5), seed=9)
        monitor = LinkQualityMonitor()
        monitor.probe_round(probed, [(1, 2), (2, 1)], epoch=0, probes_per_link=5)
        for epoch in range(20):
            assert baseline.delivered(1, 2, epoch) == probed.delivered(1, 2, epoch)

    def test_probe_count_returned(self, small_scenario):
        monitor = LinkQualityMonitor()
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        sent = monitor.probe_round(channel, [(1, 2), (3, 4)], 0, probes_per_link=3)
        assert sent == 6

    def test_probe_validation(self, small_scenario):
        monitor = LinkQualityMonitor()
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        with pytest.raises(ConfigurationError):
            monitor.probe_round(channel, [(1, 2)], 0, probes_per_link=0)


class TestTreeMaintainer:
    def test_switches_to_better_parent(self, small_scenario):
        tree = build_bushy_tree(small_scenario.rings, seed=11)
        # Pick a node with at least two upstream candidates.
        node = next(
            n
            for n in tree.parents
            if len(small_scenario.rings.upstream_neighbors(n)) >= 2
        )
        current = tree.parents[node]
        alternative = next(
            c
            for c in small_scenario.rings.upstream_neighbors(node)
            if c != current
        )
        monitor = LinkQualityMonitor(alpha=1.0, prior=0.5)
        monitor.observe(node, current, False)  # quality -> 0.0
        monitor.observe(node, alternative, True)  # quality -> 1.0
        maintainer = TreeMaintainer(small_scenario.rings, monitor)
        maintained, switches = maintainer.maintain(tree)
        assert ParentSwitch(node, current, alternative) in switches
        assert maintained.parents[node] == alternative

    def test_hysteresis_blocks_small_gains(self, small_scenario):
        tree = build_bushy_tree(small_scenario.rings, seed=11)
        monitor = LinkQualityMonitor(prior=0.8)  # every link equal quality
        maintainer = TreeMaintainer(
            small_scenario.rings, monitor, switch_margin=0.1
        )
        maintained, switches = maintainer.maintain(tree)
        assert switches == []
        assert maintained is tree

    def test_protected_nodes_never_switch(self, small_scenario):
        tree = build_bushy_tree(small_scenario.rings, seed=11)
        node = next(
            n
            for n in tree.parents
            if len(small_scenario.rings.upstream_neighbors(n)) >= 2
        )
        current = tree.parents[node]
        monitor = LinkQualityMonitor(alpha=1.0, prior=0.5)
        monitor.observe(node, current, False)
        maintainer = TreeMaintainer(
            small_scenario.rings, monitor, protected={node}
        )
        maintained, switches = maintainer.maintain(tree)
        assert all(switch.node != node for switch in switches)
        assert maintained.parents[node] == current

    def test_maintained_tree_keeps_rings_constraint(self, small_scenario):
        """Every maintained link still goes exactly one ring level up."""
        tree = build_bushy_tree(small_scenario.rings, seed=11)
        monitor = LinkQualityMonitor(alpha=1.0, prior=0.5)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.5), seed=4)
        links = [
            (node, parent)
            for node in tree.parents
            for parent in small_scenario.rings.upstream_neighbors(node)
        ]
        for epoch in range(10):
            monitor.probe_round(channel, links, epoch)
        maintainer = TreeMaintainer(small_scenario.rings, monitor, switch_margin=0.0)
        maintained, _ = maintainer.maintain(tree)
        rings = small_scenario.rings
        for child, parent in maintained.parents.items():
            assert rings.level(child) == rings.level(parent) + 1
            assert rings.connectivity.has_edge(child, parent)

    def test_validation(self, small_scenario):
        with pytest.raises(ConfigurationError):
            TreeMaintainer(
                small_scenario.rings, LinkQualityMonitor(), switch_margin=-1.0
            )


class TestRebuildRings:
    def test_no_drops_reproduces_levels(self, small_scenario):
        monitor = LinkQualityMonitor(prior=1.0)
        rebuilt = rebuild_rings(
            small_scenario.deployment,
            small_scenario.rings.connectivity,
            monitor,
            min_quality=0.5,
        )
        assert rebuilt.levels == small_scenario.rings.levels

    def test_bad_links_push_nodes_to_deeper_rings(self, small_scenario):
        rings = small_scenario.rings
        # Degrade every link of one level-1 node except via deeper neighbours.
        victim = rings.nodes_at_level(1)[0]
        monitor = LinkQualityMonitor(alpha=1.0, prior=1.0)
        for neighbor in rings.connectivity.neighbors_of(victim).tolist():
            if rings.level(neighbor) < rings.level(victim) + 1:
                monitor.observe(victim, neighbor, False)
                monitor.observe(neighbor, victim, False)
        rebuilt = rebuild_rings(
            small_scenario.deployment, rings.connectivity, monitor
        )
        # The victim either kept a rescued bridge (same level) or sank deeper.
        assert rebuilt.level(victim) >= rings.level(victim)
        rebuilt.validate()

    def test_stranded_nodes_get_reconnected(self, small_scenario):
        monitor = LinkQualityMonitor(alpha=1.0, prior=1.0)
        # Destroy every link in both directions.
        for a, b in small_scenario.rings.connectivity.edges:
            monitor.observe(a, b, False)
            monitor.observe(b, a, False)
        rebuilt = rebuild_rings(
            small_scenario.deployment,
            small_scenario.rings.connectivity,
            monitor,
        )
        # Every node must still be ringed (bad links beat no links).
        assert set(rebuilt.levels) == set(small_scenario.rings.levels)

    def test_validation(self, small_scenario):
        with pytest.raises(ConfigurationError):
            rebuild_rings(
                small_scenario.deployment,
                small_scenario.rings.connectivity,
                LinkQualityMonitor(),
                min_quality=1.5,
            )


class TestFeedMonitorFromChannel:
    def test_passive_feed_matches_channel_draws(self, small_scenario):
        monitor = LinkQualityMonitor(alpha=1.0, prior=0.5)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.5), seed=2)
        feed_monitor_from_channel(monitor, channel, [(1, 2)], epoch=7)
        expected = 1.0 if channel.delivered(1, 2, 7, 0) else 0.0
        assert monitor.quality(1, 2) == expected


class TestMaintenanceImprovesDelivery:
    def test_maintenance_lifts_delivery_rate_under_link_asymmetry(
        self, small_scenario
    ):
        """End-to-end: with one terrible link per node, maintenance helps.

        Build a loss table that makes each node's *current* parent link very
        lossy while alternatives stay clean; after probing and maintenance,
        the average quality of the tree links must improve.
        """
        rings = small_scenario.rings
        tree = build_bushy_tree(rings, seed=11)
        rates = {}
        for child, parent in tree.parents.items():
            if len(rings.upstream_neighbors(child)) >= 2:
                rates[(child, parent)] = 0.9
        table = LinkLossTable(rates=rates, default=0.05)
        channel = Channel(small_scenario.deployment, table, seed=5)
        monitor = LinkQualityMonitor(alpha=0.3, prior=0.9)
        links = [
            (node, candidate)
            for node in tree.parents
            for candidate in rings.upstream_neighbors(node)
        ]
        for epoch in range(30):
            monitor.probe_round(channel, links, epoch)
        maintainer = TreeMaintainer(rings, monitor, switch_margin=0.1)
        maintained, switches = maintainer.maintain(tree)
        assert switches  # the bad links were found

        def mean_true_quality(candidate: Tree) -> float:
            total = 0.0
            for child, parent in candidate.parents.items():
                total += 1.0 - table.loss_rate(
                    small_scenario.deployment, child, parent, 0
                )
            return total / len(candidate.parents)

        assert mean_true_quality(maintained) > mean_true_quality(tree) + 0.05


class TestOnlineMaintenance:
    def test_hook_probes_on_interval(self, small_scenario):
        from repro.aggregates.count import CountAggregate
        from repro.core.tag_scheme import TagScheme
        from repro.network.linkquality import OnlineMaintenance
        from repro.tree.construction import build_bushy_tree

        tree = build_bushy_tree(small_scenario.rings, seed=11)
        scheme = TagScheme(small_scenario.deployment, tree, CountAggregate())
        maintenance = OnlineMaintenance(
            scheme, small_scenario.rings, interval=5
        )
        channel = Channel(small_scenario.deployment, NoLoss(), seed=0)
        for epoch in range(10):
            maintenance(epoch, channel)
        # Rounds at epochs 4 and 9 only.
        assert maintenance.probes_sent == 2 * len(
            maintenance._candidate_links()
        )

    def test_end_to_end_recovery_inside_simulator(self, small_scenario):
        """A TAG run with bad initial links recovers once the on_epoch
        maintenance hook starts re-parenting."""
        from repro.aggregates.count import CountAggregate
        from repro.core.tag_scheme import TagScheme
        from repro.network.linkquality import OnlineMaintenance
        from repro.network.simulator import EpochSimulator
        from repro.tree.construction import build_bushy_tree

        rings = small_scenario.rings
        tree = build_bushy_tree(rings, seed=11)
        rates = {}
        for child, parent in tree.parents.items():
            if len(rings.upstream_neighbors(child)) >= 2:
                rates[(child, parent)] = 0.8
        table = LinkLossTable(rates=rates, default=0.0)
        deployment = small_scenario.deployment
        sensors = deployment.num_sensors
        readings = ConstantReadings(1.0)

        static = TagScheme(deployment, tree, CountAggregate())
        static_run = EpochSimulator(deployment, table, static, seed=2).run(
            30, readings
        )

        maintained_scheme = TagScheme(deployment, tree, CountAggregate())
        maintenance = OnlineMaintenance(
            maintained_scheme,
            rings,
            monitor=LinkQualityMonitor(alpha=0.4, prior=0.9),
            interval=3,
            switch_margin=0.2,
            probes_per_link=2,
        )
        simulator = EpochSimulator(
            deployment, table, maintained_scheme, seed=2, on_epoch=maintenance
        )
        maintained_run = simulator.run(30, readings)
        assert maintenance.switch_log
        assert maintained_run.mean_contributing_fraction(sensors) > (
            static_run.mean_contributing_fraction(sensors) + 0.1
        )

    def test_rejects_schemes_without_replace_tree(self, small_scenario):
        from repro.aggregates.count import CountAggregate
        from repro.core.sd_scheme import SynopsisDiffusionScheme
        from repro.network.linkquality import OnlineMaintenance

        scheme = SynopsisDiffusionScheme(
            small_scenario.deployment, small_scenario.rings, CountAggregate()
        )
        with pytest.raises(ConfigurationError):
            OnlineMaintenance(scheme, small_scenario.rings)

    def test_interval_validation(self, small_scenario):
        from repro.aggregates.count import CountAggregate
        from repro.core.tag_scheme import TagScheme
        from repro.network.linkquality import OnlineMaintenance
        from repro.tree.construction import build_bushy_tree

        tree = build_bushy_tree(small_scenario.rings, seed=11)
        scheme = TagScheme(small_scenario.deployment, tree, CountAggregate())
        with pytest.raises(ConfigurationError):
            OnlineMaintenance(scheme, small_scenario.rings, interval=0)
