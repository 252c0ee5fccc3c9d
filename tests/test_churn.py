"""Tests for the dynamic-topology subsystem: churn, repair, re-ringing.

Covers the churn-model family, ring recomputation over survivors, tree
repair (every orphaned live node reattaches), the membership runtime's
plan invalidation and energy accounting, scheme rebuild hooks, simulator
integration (blocked vs per-epoch equivalence *with* churn), and the
end-to-end reachability of churn from Session / sweep / run-config.

``TestChurnDisabledByteIdentity`` pins the other half of the contract:
with churn off, all four schemes still produce byte-identical results to
the pre-churn engine (golden digests recorded from the seed revision).
"""

from __future__ import annotations

import hashlib

import pytest

import topology_goldens

from repro import serialization
from repro.aggregates.count import CountAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.api import (
    RunConfig,
    Session,
    build_scenario,
    config_digest,
    describe_experiment,
    run_config_result,
)
from repro.chaos.checkpoint import Checkpointer
from repro.core.adaptation import TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import UniformReadings
from repro.errors import ConfigurationError, SimulationKilled, TopologyError
from repro.network.churn import (
    BirthDeathChurn,
    ChurnBatch,
    ChurnContext,
    DynamicMembership,
    LifetimeChurn,
    RandomDeaths,
    RegionalBlackout,
    ScheduledChurn,
)
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.network.placement import BASE_STATION
from repro.network.rings import RingsTopology
from repro.network.simulator import EpochSimulator
from repro.registry import CHURN_MODELS, build_aggregate, build_churn_model
from repro.tree.repair import REPAIR_WORDS, repair_tree


@pytest.fixture()
def context(small_scenario):
    return ChurnContext(
        epoch=50,
        epochs_elapsed=50,
        alive=frozenset(small_scenario.deployment.node_ids),
        deployment=small_scenario.deployment,
        per_node_uj={},
    )


class TestChurnModels:
    def test_scheduled_windows(self, context):
        model = ScheduledChurn.of(
            deaths=[(10, [1, 2]), (30, [3])], joins=[(30, [1])]
        )
        # First boundary (open start) collects everything due by then.
        assert model.events_in(None, 10, context) == ChurnBatch(deaths=(1, 2))
        # Half-open below: an event at the previous boundary is not re-due.
        assert not model.events_in(10, 20, context)
        batch = model.events_in(20, 30, context)
        assert batch.deaths == (3,) and batch.joins == (1,)
        # A first boundary past every event nets them per node: node 1's
        # later join (epoch 30) wins over its death (epoch 10).
        late = model.events_in(None, 100, context)
        assert late.deaths == (2, 3) and late.joins == (1,)

    def test_scheduled_net_state_ties_resolve_to_death(self, context):
        model = ScheduledChurn.of(deaths=[(10, [4])], joins=[(10, [4])])
        batch = model.events_in(None, 10, context)
        assert batch.deaths == (4,) and not batch.joins

    def test_random_deaths_deterministic(self, context):
        model = RandomDeaths(epoch=50, count=5, seed=3)
        first = model.events_in(None, 50, context)
        second = model.events_in(None, 50, context)
        assert first == second
        assert len(first.deaths) == 5
        assert BASE_STATION not in first.deaths
        assert set(first.deaths) <= context.alive
        # A different seed draws a different sample.
        other = RandomDeaths(epoch=50, count=5, seed=4).events_in(
            None, 50, context
        )
        assert other.deaths != first.deaths
        # Outside the window: nothing.
        assert not model.events_in(50, 60, context)

    def test_random_deaths_clamps_to_population(self, context):
        model = RandomDeaths(epoch=50, count=10_000, seed=0)
        batch = model.events_in(None, 50, context)
        assert set(batch.deaths) == context.alive - {BASE_STATION}

    def test_blackout_region_and_rejoin(self, context):
        model = RegionalBlackout(
            epoch=20, lower=(0.0, 0.0), upper=(10.0, 10.0), rejoin_epoch=40
        )
        dark = model.events_in(None, 20, context)
        expected = tuple(
            context.deployment.nodes_in_rect((0.0, 0.0), (10.0, 10.0))
        )
        assert dark.deaths == expected and not dark.joins
        back = model.events_in(30, 40, context)
        assert back.joins == expected and not back.deaths
        # Both events inside one window net to "alive": the region was
        # never down at any executed boundary.
        both = model.events_in(None, 100, context)
        assert both.joins == expected and not both.deaths

    def test_blackout_validation(self):
        with pytest.raises(ConfigurationError):
            RegionalBlackout(epoch=10, lower=(5, 5), upper=(1, 1))
        with pytest.raises(ConfigurationError):
            RegionalBlackout(epoch=10, rejoin_epoch=10)

    def test_lifetime_threshold(self, small_scenario):
        ctx = ChurnContext(
            epoch=100,
            epochs_elapsed=100,
            alive=frozenset(small_scenario.deployment.node_ids),
            deployment=small_scenario.deployment,
            per_node_uj={1: 2e6, 2: 0.4e6, 3: 1.1e6},
        )
        model = LifetimeChurn(battery_j=1.2, overhead_uj_per_epoch=0.0)
        assert model.events_in(None, 100, ctx).deaths == (1,)
        # Duty-cycle overhead accrues per elapsed epoch for every node.
        heavy = LifetimeChurn(battery_j=1.2, overhead_uj_per_epoch=1e4)
        assert 2 in heavy.events_in(None, 100, ctx).deaths
        with pytest.raises(ConfigurationError):
            LifetimeChurn(battery_j=0.0)

    def test_registry_specs(self):
        assert build_churn_model("none") is None
        assert build_churn_model("deaths:50:10:2") == RandomDeaths(50, 10, 2)
        blackout = build_churn_model("blackout:100:0:0:10:10:300")
        assert blackout == RegionalBlackout(
            100, lower=(0.0, 0.0), upper=(10.0, 10.0), rejoin_epoch=300
        )
        assert build_churn_model("lifetime:5") == LifetimeChurn(5.0)
        assert build_churn_model("at:30:4+9").events_in(
            None,
            30,
            ChurnContext(30, 30, frozenset({0, 4, 9}), None, {}),
        ) == ChurnBatch(deaths=(4, 9))
        with pytest.raises(ConfigurationError, match="churn"):
            build_churn_model("bogus:1")
        with pytest.raises(ConfigurationError, match="bad churn spec"):
            build_churn_model("deaths:x:y")
        assert "blackout" in CHURN_MODELS

    def test_birthdeath_spec(self):
        model = build_churn_model("birthdeath:0.01:0.2:5")
        assert model == BirthDeathChurn(
            death_rate=0.01, birth_rate=0.2, seed=5
        )
        assert build_churn_model("birthdeath:0.01:0.2") == BirthDeathChurn(
            death_rate=0.01, birth_rate=0.2
        )
        assert "birthdeath" in CHURN_MODELS

    def test_birthdeath_window_invariance(self, context):
        """One 30-epoch window nets the same state as three 10-epoch ones:
        the blocked and per-epoch engines see identical churn."""
        model = BirthDeathChurn(death_rate=0.05, birth_rate=0.3, seed=4)
        whole = model.events_in(None, 30, context)
        alive = set(context.alive)
        start = None
        for end in (10, 20, 30):
            ctx = ChurnContext(
                epoch=end,
                epochs_elapsed=end,
                alive=frozenset(alive),
                deployment=context.deployment,
                per_node_uj={},
            )
            batch = model.events_in(start, end, ctx)
            alive.difference_update(batch.deaths)
            alive.update(batch.joins)
            start = end
        assert set(context.alive) - set(whole.deaths) | set(
            whole.joins
        ) == alive

    def test_birthdeath_turns_over_and_rejoins(self, context):
        model = BirthDeathChurn(death_rate=0.1, birth_rate=0.5, seed=4)
        batch = model.events_in(None, 30, context)
        assert batch.deaths  # sustained death rate kills someone in 30 epochs
        assert BASE_STATION not in batch.deaths
        # A node that died earlier can be alive again by the window's end:
        # replay one dead node's flips and check some window revives it.
        dead = batch.deaths[0]
        ctx = ChurnContext(
            epoch=60,
            epochs_elapsed=60,
            alive=frozenset(set(context.alive) - set(batch.deaths)),
            deployment=context.deployment,
            per_node_uj={},
        )
        later = model.events_in(30, 60, ctx)
        assert later.joins, "birth rate 0.5 revives dead nodes"
        assert dead not in later.deaths

    def test_birthdeath_validation(self):
        with pytest.raises(ConfigurationError):
            BirthDeathChurn(death_rate=1.5)
        with pytest.raises(ConfigurationError):
            BirthDeathChurn(death_rate=0.1, birth_rate=-0.2)


class TestDarkParentReadmission:
    """Stranded subtrees snap back to their remembered parents on rejoin."""

    def test_repair_prefers_remembered_parent(
        self, small_scenario, small_tree
    ):
        rings = small_scenario.rings
        deployment = small_scenario.deployment
        # Pick a node with siblings under a non-base parent, pretend it
        # went dark and came back: preferred routing restores the old link
        # even when a different candidate is nearer.
        candidates = [
            node
            for node, parent in small_tree.parents.items()
            if parent != BASE_STATION
            and node
            != nearest_upstream_parent_probe(rings, deployment, node)
        ]
        assert candidates, "scenario has a node whose parent is not nearest"
        node = candidates[0]
        old_parent = small_tree.parents[node]
        broken = dict(small_tree.parents)
        del broken[node]
        from repro.tree.structure import Tree

        tree = Tree(parents=broken, root=BASE_STATION)
        repaired, report = repair_tree(
            tree, rings, deployment, preferred={node: old_parent}
        )
        assert repaired.parents[node] == old_parent
        assert (node, old_parent) in report.reattached
        # Without the memory, the same orphan scatters to the nearest.
        scattered, _ = repair_tree(tree, rings, deployment)
        assert scattered.parents[node] == nearest_upstream_parent_probe(
            rings, deployment, node
        )

    def test_membership_remembers_through_blackout(self, small_scenario):
        from repro.tree.construction import build_bushy_tree

        tree = build_bushy_tree(small_scenario.rings, seed=11)
        # Kill a mid-tree node with children: its subtree strands, then the
        # bridge rejoins and the stranded children return to their parents.
        children_of = {}
        for child, parent in tree.parents.items():
            children_of.setdefault(parent, []).append(child)
        bridge = next(
            node
            for node, kids in children_of.items()
            if node != BASE_STATION and kids
        )
        membership = DynamicMembership(
            ScheduledChurn.of(
                deaths=[(10, [bridge])], joins=[(30, [bridge])]
            ),
            small_scenario.deployment,
            small_scenario.rings,
            tree,
        )
        channel = Channel(
            small_scenario.deployment, GlobalLoss(0.0), seed=1
        )
        update = membership.advance(10, 10, channel)
        stranded = set(update.stranded)
        remembered = dict(membership._dark_parents)
        assert set(remembered) <= stranded
        update = membership.advance(30, 30, channel)
        assert bridge in update.joined
        for node, parent in remembered.items():
            # Each remembered node is back in the tree; those whose old
            # link is valid again point at their remembered parent.
            assert node in membership.tree.parents
            if (
                membership.rings.levels.get(parent)
                == membership.rings.levels[node] - 1
            ):
                assert membership.tree.parents[node] == parent
        assert not membership._dark_parents


def nearest_upstream_parent_probe(rings, deployment, node):
    from repro.tree.repair import nearest_upstream_parent

    return nearest_upstream_parent(rings, deployment, node)


class TestRestrictedRings:
    def test_restricts_levels_to_survivors(self, small_scenario):
        alive = set(small_scenario.deployment.node_ids) - {5, 9}
        rings, stranded = RingsTopology.build_restricted(
            small_scenario.rings.connectivity, alive
        )
        assert 5 not in rings.levels and 9 not in rings.levels
        assert set(rings.levels) | set(stranded) == alive
        rings.validate()
        # Survivors never move closer to the base station.
        for node, level in rings.levels.items():
            assert level >= small_scenario.rings.level(node)

    def test_stranded_nodes_reported(self, small_scenario):
        # Kill every ring-1 node: everything deeper is stranded.
        ring1 = set(small_scenario.rings.nodes_at_level(1))
        alive = set(small_scenario.deployment.node_ids) - ring1
        rings, stranded = RingsTopology.build_restricted(
            small_scenario.rings.connectivity, alive
        )
        assert set(rings.levels) == {BASE_STATION}
        assert set(stranded) == alive - {BASE_STATION}

    def test_base_station_is_immortal(self, small_scenario):
        with pytest.raises(TopologyError):
            RingsTopology.build_restricted(
                small_scenario.rings.connectivity, {1, 2, 3}
            )


class TestRepairTree:
    def test_survivors_keep_parents(self, small_scenario, small_tree):
        rings, _ = RingsTopology.build_restricted(
            small_scenario.rings.connectivity,
            set(small_scenario.deployment.node_ids),
        )
        repaired, report = repair_tree(
            small_tree, rings, small_scenario.deployment
        )
        assert repaired.parents == dict(small_tree.parents)
        assert report.num_reattached == 0 and report.words == 0

    def test_orphans_reattach_to_nearest_live_parent(
        self, small_scenario, small_tree
    ):
        # Kill a parent with children: its whole subtree must re-home.
        children_of = small_tree.children_map()
        victim = max(
            (n for n in small_tree.nodes if n != BASE_STATION),
            key=lambda n: len(children_of[n]),
        )
        orphans = children_of[victim]
        assert orphans, "victim should have children"
        alive = set(small_scenario.deployment.node_ids) - {victim}
        rings, stranded = RingsTopology.build_restricted(
            small_scenario.rings.connectivity, alive
        )
        repaired, report = repair_tree(
            small_tree, rings, small_scenario.deployment
        )
        # Every live reachable node is in the repaired tree; the victim and
        # the stranded are not.
        assert set(repaired.nodes) == set(rings.levels)
        reattached = dict(report.reattached)
        for orphan in orphans:
            if orphan not in rings.levels:
                continue  # stranded by the death
            new_parent = repaired.parents[orphan]
            assert new_parent != victim
            # Nearest live upstream candidate, ties by id.
            candidates = rings.upstream_neighbors(orphan)
            best = min(
                candidates,
                key=lambda p: (
                    small_scenario.deployment.distance(orphan, p),
                    p,
                ),
            )
            assert reattached[orphan] == best == new_parent
        assert report.words == REPAIR_WORDS * report.num_reattached
        assert victim in report.removed
        # Every repaired link is a one-level-up radio link (the TD
        # synchronisation invariant survives repair).
        for child, parent in repaired.parents.items():
            assert rings.level(child) == rings.level(parent) + 1
            assert rings.connectivity.has_edge(child, parent)


class TestDynamicMembership:
    def _membership(self, scenario, tree, model):
        return DynamicMembership(
            model, scenario.deployment, scenario.rings, tree
        )

    def test_advance_applies_deaths_and_bumps_plans(
        self, small_scenario, small_tree
    ):
        model = ScheduledChurn.of(deaths=[(10, [7, 12])])
        membership = self._membership(small_scenario, small_tree, model)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.0), seed=0)
        version = channel._model_version
        assert membership.advance(0, 0, channel) is None
        update = membership.advance(10, 10, channel)
        assert update is not None
        assert update.died == (7, 12)
        assert 7 not in membership.alive
        assert channel._model_version == version + 1
        assert membership.updates == [update]
        # Repair control messages land in the per-node energy maps.
        charged = {
            node: words
            for node, words in channel.per_node_words().items()
            if words
        }
        assert set(charged) == {c for c, _ in update.repair.reattached}
        assert all(words == REPAIR_WORDS for words in charged.values())

    def test_base_station_never_dies_and_unknown_joins_ignored(
        self, small_scenario, small_tree
    ):
        model = ScheduledChurn.of(
            deaths=[(5, [BASE_STATION])], joins=[(5, [10_000])]
        )
        membership = self._membership(small_scenario, small_tree, model)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.0), seed=0)
        assert membership.advance(5, 5, channel) is None
        assert BASE_STATION in membership.alive

    def test_overlapping_batch_rejected(self, small_scenario, small_tree):
        class BadModel:
            def events_in(self, start, end, ctx):
                return ChurnBatch(deaths=(3,), joins=(3,))

        membership = self._membership(small_scenario, small_tree, BadModel())
        channel = Channel(small_scenario.deployment, GlobalLoss(0.0), seed=0)
        with pytest.raises(ConfigurationError, match="net state"):
            membership.advance(0, 0, channel)

    def test_blackout_and_rejoin_before_start_is_a_noop(
        self, small_scenario, small_tree
    ):
        # Both events predate the first boundary: the net state is "all
        # alive", not "region permanently dark".
        model = RegionalBlackout(
            epoch=100,
            lower=(0.0, 0.0),
            upper=(10.0, 10.0),
            rejoin_epoch=120,
        )
        membership = self._membership(small_scenario, small_tree, model)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.0), seed=0)
        assert membership.advance(1000, 0, channel) is None
        assert membership.alive == set(small_scenario.deployment.node_ids)

    def test_lifetime_uses_simulator_energy_model(
        self, small_scenario, small_tree
    ):
        from repro.network.energy import EnergyModel

        model = LifetimeChurn(battery_j=1e-4, overhead_uj_per_epoch=0.0)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.0), seed=0)
        channel.account_control(3, words=10, messages=1)  # 20 + 40 uJ default
        membership = self._membership(small_scenario, small_tree, model)
        # Default pricing: 60 uJ < 100 uJ battery — node 3 survives.
        assert membership.advance(0, 1, channel) is None
        # The simulator's (expensive) model pushes it over the edge.
        pricey = EnergyModel(per_message_uj=90.0, per_byte_uj=10.0)
        update = membership.advance(10, 11, channel, energy_model=pricey)
        assert update is not None and update.died == (3,)

    def test_rejoin_restores_membership(self, small_scenario, small_tree):
        model = ScheduledChurn.of(
            deaths=[(10, [7])], joins=[(20, [7])]
        )
        membership = self._membership(small_scenario, small_tree, model)
        channel = Channel(small_scenario.deployment, GlobalLoss(0.0), seed=0)
        membership.advance(10, 10, channel)
        assert 7 not in membership.alive
        update = membership.advance(20, 20, channel)
        assert update.joined == (7,)
        assert 7 in membership.alive and 7 in update.rings.levels
        assert 7 in update.tree.parents


def _build_scheme(name, scenario, tree, use_batch=True):
    aggregate = SumAggregate()
    if name == "TAG":
        return TagScheme(
            scenario.deployment, tree, aggregate, use_batch=use_batch
        )
    if name == "SD":
        return SynopsisDiffusionScheme(
            scenario.deployment, scenario.rings, aggregate, use_batch=use_batch
        )
    graph = TDGraph(
        scenario.rings, tree, initial_modes_by_level(scenario.rings, 2)
    )
    return TributaryDeltaScheme(
        scenario.deployment,
        graph,
        aggregate,
        policy=TDFinePolicy(),
        use_batch=use_batch,
    )


def _run_with_churn(name, scenario, tree, model, use_batch=True, epochs=30):
    scheme = _build_scheme(name, scenario, tree, use_batch)
    membership = DynamicMembership(
        model, scenario.deployment, scenario.rings, tree
    )
    simulator = EpochSimulator(
        scenario.deployment,
        GlobalLoss(0.2),
        scheme,
        seed=1,
        adapt_interval=10,
        membership=membership,
    )
    run = simulator.run(epochs, UniformReadings(10, 100, seed=1))
    return run, membership, scheme


def _run_fingerprint(run):
    return [
        (
            result.epoch,
            result.estimate,
            result.true_value,
            result.contributing,
            result.contributing_estimate,
            result.log.transmissions,
            result.log.deliveries,
            result.log.drops,
            result.log.words_sent,
            result.log.messages_sent,
            sorted(result.extra.items(), key=lambda kv: kv[0]),
        )
        for result in run.epochs
    ]


class TestSimulatorChurn:
    @pytest.mark.parametrize("name", ["TAG", "SD", "TD"])
    def test_blocked_equals_per_epoch_under_churn(
        self, name, small_scenario, small_tree
    ):
        model = RandomDeaths(epoch=10, count=12, seed=2)
        blocked, _, _ = _run_with_churn(
            name, small_scenario, small_tree, model
        )
        looped, _, _ = _run_with_churn(
            name, small_scenario, small_tree, model, use_batch=False
        )
        assert _run_fingerprint(blocked) == _run_fingerprint(looped)

    def test_truth_follows_live_population(self, small_scenario, small_tree):
        model = ScheduledChurn.of(deaths=[(10, [3, 4, 5])])
        run, membership, scheme = _run_with_churn(
            "TAG", small_scenario, small_tree, model
        )
        num = small_scenario.deployment.num_sensors
        assert [r.extra["alive_sensors"] for r in run.epochs[:10]] == [num] * 10
        assert all(
            r.extra["alive_sensors"] == num - 3 for r in run.epochs[10:]
        )
        # Ground truth is computed over the survivors only.
        readings = UniformReadings(10, 100, seed=1)
        alive = sorted(membership.alive - {BASE_STATION})
        expected = sum(readings(node, 29) for node in alive)
        assert run.epochs[29].true_value == pytest.approx(expected)

    def test_reattaches_every_orphaned_live_node(
        self, medium_scenario, medium_tree
    ):
        model = RandomDeaths(epoch=10, count=30, seed=5)
        _, membership, scheme = _run_with_churn(
            "TD", medium_scenario, medium_tree, model
        )
        assert membership.updates, "churn should have fired"
        update = membership.updates[-1]
        live_reachable = set(update.rings.levels)
        assert set(update.tree.nodes) == live_reachable
        for node in live_reachable - {BASE_STATION}:
            assert node in update.tree.parents
        # The TD graph was rebuilt over the repaired topology and still
        # satisfies edge correctness (Property 1).
        scheme.graph.validate()
        assert set(scheme.graph.modes()) == live_reachable

    def test_repair_energy_counted_in_totals(
        self, small_scenario, small_tree
    ):
        # Kill a node with children so repair definitely fires.
        children_of = small_tree.children_map()
        victim = max(
            (n for n in small_tree.nodes if n != BASE_STATION),
            key=lambda n: len(children_of[n]),
        )
        model = ScheduledChurn.of(deaths=[(10, [victim])])
        run, membership, _ = _run_with_churn(
            "TAG", small_scenario, small_tree, model
        )
        repair = membership.updates[0].repair
        assert repair.words > 0
        epoch_words = sum(r.log.words_sent for r in run.epochs)
        epoch_messages = sum(r.log.messages_sent for r in run.epochs)
        # The energy totals include the repair bill on top of the per-epoch
        # logs, consistent with the per-node load maps.
        assert run.energy.total_words == epoch_words + repair.words
        assert run.energy.total_messages == epoch_messages + repair.messages

    def test_churn_requires_membership_hook(self, small_scenario, small_tree):
        class Hookless:
            name = "hookless"

            def run_epoch(self, epoch, channel, readings):
                raise NotImplementedError

            def exact_answer(self, epoch, readings):
                return 0.0

            def adapt(self, epoch, outcome):
                pass

        membership = DynamicMembership(
            RandomDeaths(5, 2),
            small_scenario.deployment,
            small_scenario.rings,
            small_tree,
        )
        with pytest.raises(ConfigurationError, match="on_membership_change"):
            EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(0.0),
                Hookless(),
                membership=membership,
            )

    def test_lifetime_churn_triggers_deaths(self, small_scenario, small_tree):
        model = LifetimeChurn(battery_j=0.0005, overhead_uj_per_epoch=0.0)
        run, membership, _ = _run_with_churn(
            "TAG", small_scenario, small_tree, model
        )
        assert membership.updates, "the battery should have run out"
        assert membership.updates[0].died
        assert run.epochs[-1].extra["alive_sensors"] < (
            small_scenario.deployment.num_sensors
        )


class TestChurnEndToEnd:
    def test_session_runs_churn_config(self):
        config = RunConfig(
            scheme="TD",
            num_sensors=60,
            epochs=20,
            converge_epochs=8,
            failure="global:0.2",
            aggregate="sum",
            reading="uniform:10:100:0",
            churn="deaths:1005:10:1",
        )
        report = Session().run(config)
        assert len(report.result.epochs) == 20
        alive = [r.extra["alive_sensors"] for r in report.result.epochs]
        assert alive[0] == 60 and alive[-1] == 50
        # The digest sees the churn axis: same run without churn is a
        # different cache key.
        assert config_digest(config) != config_digest(
            config.replace(churn="none")
        )

    def test_describe_churn_timeline(self):
        config = describe_experiment("churn_timeline")
        assert config.churn.startswith("blackout:")
        assert RunConfig.from_json(config.to_json()) == config

    def test_sweep_spec_carries_churn(self, tmp_path):
        config = RunConfig(
            scheme="TAG",
            seed=1,
            failure="global:0.2",
            num_sensors=60,
            epochs=10,
            converge_epochs=0,
            churn="deaths:1000:8:1",
        )
        session = Session(cache_dir=tmp_path)
        first = session.sweep([config]).results
        second = session.sweep([config]).results  # cache hit
        assert _run_fingerprint(first[0]) == _run_fingerprint(second[0])
        assert first[0].epochs[-1].extra["alive_sensors"] == 52

    def test_quick_churn_timeline_experiment(self, quick_figure):
        result = quick_figure("churn-timeline")
        assert set(result.relative_errors) == {"TAG", "SD", "TD-Coarse", "TD"}
        for name, alive in result.alive_series.items():
            assert min(alive) < 150, name
            assert alive[-1] == 150, "the blackout region rejoined"
        assert all(count > 0 for count in result.reattached.values())
        assert "blackout" in result.render() or "healthy" in result.render()


#: sha256 over the full result fingerprint of the seed revision (pre-churn
#: engine), keyed by "scheme|failure". Recorded from commit 4893711.
GOLDEN_DIGESTS = {
    "TAG|none": "4bd448aa8a688c24689d101bc959b99ddc1dd404048325fe0eb77a757e0fdf7c",
    "TAG|global:0.3": "39662a49fa19947f10d855cbd64d2aa3b9661988c90e3f98d766f817569382d8",
    "SD|none": "378762df41c37bd8da3b2eaaaa4f74abf9ec3f47bb063228f941ea2abb10b867",
    "SD|global:0.3": "bbd4ddc5bcef4f7fee16b53302fd12cb7b32a09e2abc5f1260837b511200fea5",
    "TD-Coarse|none": "4bd448aa8a688c24689d101bc959b99ddc1dd404048325fe0eb77a757e0fdf7c",
    "TD-Coarse|global:0.3": "a70260bd56a5f4b5f6149116501c14941992690a70f888bb95d1b3746df6bd51",
    "TD|none": "4bd448aa8a688c24689d101bc959b99ddc1dd404048325fe0eb77a757e0fdf7c",
    "TD|global:0.3": "cf624e4744f584e6c325388b5386a9ebcd198b20ee0e1d1f1bc64730e48bcf15",
}


CHURN_GOLDENS = topology_goldens.load()["churn"]


@pytest.mark.parametrize("name", sorted(CHURN_GOLDENS))
def test_every_boundary_matches_the_recorded_dict_tier(name):
    """Levels, stranded set and repaired tree after each churn boundary, and
    the run's full result, as the networkx-subgraph re-ringing produced them."""
    config = topology_goldens.churn_configs()[name]
    assert topology_goldens.churn_digests(config) == CHURN_GOLDENS[name]


#: Churn that leaves live nodes cut off from the base station: a dead band
#: across the field that later rejoins (its dark subtrees snap back), deaths
#: heavy enough to sever a subtree for good, and steady turnover that strands
#: and re-admits a few nodes at most boundaries.
STRANDING_CHURN = {
    "blackout": dict(
        num_sensors=300, epochs=30, churn="blackout:10:3:0:6.5:20:20"
    ),
    "deaths": dict(num_sensors=100, epochs=30, churn="deaths:10:80:3"),
    "birthdeath": dict(
        num_sensors=150, epochs=40, churn="birthdeath:0.45:0.15:1"
    ),
}


def _stranding_config(case, scheme, **overrides):
    return RunConfig(
        scheme=scheme,
        failure="global:0.1",
        aggregate="sum",
        reading="uniform:10:100:0",
        start_epoch=0,
        converge_epochs=0,
        churn_interval=10,
        **STRANDING_CHURN[case],
        **overrides,
    )


@pytest.mark.parametrize("case", sorted(STRANDING_CHURN))
class TestChurnOnArrayState:
    """Re-ringing is a masked BFS over the static CSR: the cases the dict
    tier used to serve through a networkx subgraph, stranding included."""

    def test_case_strands_live_nodes(self, case):
        config = _stranding_config(case, "TAG")
        scenario = build_scenario(config)
        scheme = scenario.build_scheme(build_aggregate(config.aggregate))
        simulator = scenario.build_simulator(scheme)
        simulator.run(config.epochs, scenario.source, start_epoch=0)
        updates = simulator.membership.updates
        assert any(update.stranded for update in updates)
        assert (case == "deaths") != any(update.joined for update in updates)
        for update in updates:
            ringed = set(update.rings.levels)
            assert ringed == set(update.tree.nodes)
            assert ringed | set(update.stranded) == update.alive
            assert not ringed & set(update.stranded)
            TDGraph(update.rings, update.tree)  # validates every tree link
        assert scenario.topology.rings.connectivity is updates[-1].rings.connectivity

    @pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
    def test_kill_and_resume_equals_straight_run(self, case, scheme, tmp_path):
        config = _stranding_config(case, scheme)
        straight = run_config_result(config)
        with pytest.raises(SimulationKilled):
            run_config_result(
                config,
                checkpoint=Checkpointer(tmp_path, interval=10, kill_at=20),
            )
        resumed = run_config_result(
            config, checkpoint=Checkpointer(tmp_path, interval=10, resume=True)
        )
        # Compared serialised: a checkpoint round-trips ``extra`` through JSON.
        assert serialization.dumps(resumed) == serialization.dumps(straight)

    @pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
    def test_engine_equals_oracle(self, case, scheme):
        engine = run_config_result(_stranding_config(case, scheme))
        oracle = run_config_result(
            _stranding_config(case, scheme, use_batch=False)
        )
        assert _run_fingerprint(engine) == _run_fingerprint(oracle)


def _digest(result):
    payload = repr(
        (
            [e.estimate for e in result.epochs],
            [e.contributing for e in result.epochs],
            [e.contributing_estimate for e in result.epochs],
            [
                (
                    e.log.transmissions,
                    e.log.deliveries,
                    e.log.drops,
                    e.log.words_sent,
                    e.log.messages_sent,
                )
                for e in result.epochs
            ],
            sorted(result.energy.per_node_uj.items()),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestChurnDisabledByteIdentity:
    """With churn off, results are byte-identical to the pre-churn engine."""

    @pytest.mark.parametrize("failure", ["none", "global:0.3"])
    @pytest.mark.parametrize("scheme", ["TAG", "SD", "TD-Coarse", "TD"])
    def test_golden_digests(self, scheme, failure):
        config = RunConfig(
            scheme=scheme,
            failure=failure,
            num_sensors=60,
            epochs=12,
            converge_epochs=10,
            aggregate="sum",
            reading="uniform:10:100:0",
            seed=1,
            scenario_seed=0,
        )
        result = Session().run(config).result
        assert _digest(result) == GOLDEN_DIGESTS[f"{scheme}|{failure}"]
