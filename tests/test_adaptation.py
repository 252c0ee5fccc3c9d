"""Tests for the TD-Coarse / TD adaptation policies and damping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.count import CountAggregate
from repro.api import (
    EXPERIMENT_CONFIGS,
    QueryWorkload,
    RunConfig,
    build_scenario,
)
from repro.core.adaptation import (
    AdaptationAction,
    DampedPolicy,
    TDCoarsePolicy,
    TDFinePolicy,
)
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import ConstantReadings, UniformReadings
from repro.errors import ConfigurationError
from repro.network.failures import GlobalLoss, NoLoss, RegionalLoss
from repro.network.links import Channel
from repro.network.placement import BASE_STATION
from repro.network.simulator import EpochOutcome, EpochSimulator
from repro.query import parse_query
from repro.registry import build_aggregate


def outcome_with(contributing_estimate, extra=None):
    return EpochOutcome(
        estimate=0.0,
        contributing=0,
        contributing_estimate=contributing_estimate,
        extra=extra or {},
    )


@pytest.fixture()
def graph(small_scenario, small_tree):
    return TDGraph(
        small_scenario.rings,
        small_tree,
        initial_modes_by_level(small_scenario.rings, 0),
    )


class TestTDCoarse:
    def test_expands_below_threshold(self, graph):
        policy = TDCoarsePolicy(threshold=0.9)
        before = len(graph.delta_region())
        action = policy.adjust(graph, outcome_with(0.5 * 60), 60)
        assert action.kind == "expand"
        assert len(graph.delta_region()) > before

    def test_shrinks_well_above_threshold(self, graph):
        policy = TDCoarsePolicy(threshold=0.9, shrink_margin=0.05)
        graph.expand_all()
        action = policy.adjust(graph, outcome_with(60.0), 60)
        assert action.kind == "shrink"

    def test_holds_in_band(self, graph):
        policy = TDCoarsePolicy(threshold=0.9, shrink_margin=0.05)
        action = policy.adjust(graph, outcome_with(0.92 * 60), 60)
        assert action.kind == "none"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TDCoarsePolicy(threshold=0.0)
        with pytest.raises(ConfigurationError):
            TDCoarsePolicy(shrink_margin=-0.1)


class TestTDFine:
    def test_bootstrap_from_all_tree(self, small_scenario, small_tree):
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, -1),
        )
        policy = TDFinePolicy()
        action = policy.adjust(graph, outcome_with(10.0), 60)
        assert action.kind == "expand"
        assert graph.delta_region()  # the root switched

    def test_expand_targets_max_missing(self, graph):
        policy = TDFinePolicy(expand_cut=1.0)
        switchable = graph.switchable_m_nodes()
        target = switchable[0]
        children_before = [
            child
            for child in graph.tree_children(target)
            if graph.is_switchable_t(child)
        ]
        stats = {node: (50 if node == target else 1) for node in switchable}
        action = policy.adjust(
            graph, outcome_with(10.0, {"missing_stats": stats}), 60
        )
        assert action.kind == "expand"
        assert set(action.switched) == set(children_before)

    def test_expand_cut_targets_many(self, graph):
        policy = TDFinePolicy(expand_cut=0.5)
        switchable = graph.switchable_m_nodes()
        stats = {node: 40 for node in switchable}
        action = policy.adjust(
            graph, outcome_with(10.0, {"missing_stats": stats}), 60
        )
        assert action.kind == "expand"
        # All tied at the max: every switchable node's children switch.
        assert len(action.switched) >= len(
            [c for c in graph.tree_children(switchable[0])]
        )

    def test_shrink_targets_min_missing(self, graph):
        policy = TDFinePolicy()
        graph.expand_all()
        switchable = graph.switchable_m_nodes()
        stats = {node: index for index, node in enumerate(switchable)}
        action = policy.adjust(
            graph, outcome_with(60.0, {"missing_stats": stats}), 60
        )
        assert action.kind == "shrink"
        assert action.switched == (switchable[0],)

    def test_no_stats_no_action_with_delta(self, graph):
        policy = TDFinePolicy()
        action = policy.adjust(graph, outcome_with(10.0, {}), 60)
        # The delta exists but reported nothing: stay put this round.
        assert action.kind in ("none", "expand")

    def test_zero_missing_no_expand(self, graph):
        policy = TDFinePolicy()
        stats = {node: 0 for node in graph.switchable_m_nodes()}
        action = policy.adjust(
            graph, outcome_with(10.0, {"missing_stats": stats}), 60
        )
        assert action.kind == "none"


class TestTDTopK:
    """The paper's §4.2 top-k expansion heuristic."""

    @pytest.fixture()
    def wide_graph(self, small_scenario, small_tree):
        """A delta spanning rings 0-1, giving several switchable M nodes."""
        return TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 1),
        )

    def test_top_1_matches_paper_base_design(self, graph):
        """top_k=1 targets exactly the single max-missing subtree, like the
        paper's base design (expand_cut=1.0 with a unique maximum)."""
        switchable = graph.switchable_m_nodes()
        target = switchable[0]
        stats = {node: (50 if node == target else 5) for node in switchable}
        expected_children = {
            child
            for child in graph.tree_children(target)
            if graph.is_switchable_t(child)
        }
        topk = TDFinePolicy(top_k=1)
        action = topk.adjust(
            graph, outcome_with(10.0, {"missing_stats": stats}), 60
        )
        assert action.kind == "expand"
        assert set(action.switched) == expected_children

    def test_top_k_bounds_targets(self, wide_graph):
        graph = wide_graph
        switchable = graph.switchable_m_nodes()
        if len(switchable) < 3:
            pytest.skip("scenario has too few switchable M nodes")
        stats = {node: 10 + index for index, node in enumerate(switchable)}
        # Targets are the two highest-missing nodes only.
        ranked = sorted(switchable, key=lambda node: -stats[node])[:2]
        expected = {
            child
            for target in ranked
            for child in graph.tree_children(target)
            if graph.is_switchable_t(child)
        }
        topk = TDFinePolicy(top_k=2)
        action = topk.adjust(
            graph, outcome_with(10.0, {"missing_stats": stats}), 60
        )
        assert set(action.switched) == expected
        assert expected  # the scenario must actually exercise the heuristic

    def test_top_k_ignores_zero_missing_nodes(self, graph):
        switchable = graph.switchable_m_nodes()
        target = switchable[0]
        stats = {node: (7 if node == target else 0) for node in switchable}
        expected = {
            child
            for child in graph.tree_children(target)
            if graph.is_switchable_t(child)
        }
        topk = TDFinePolicy(top_k=5)
        action = topk.adjust(
            graph, outcome_with(10.0, {"missing_stats": stats}), 60
        )
        assert set(action.switched) == expected

    def test_ties_break_deterministically(self, wide_graph):
        graph = wide_graph
        switchable = graph.switchable_m_nodes()
        if len(switchable) < 2:
            pytest.skip("scenario has too few switchable M nodes")
        stats = {node: 10 for node in switchable}
        first = TDFinePolicy(top_k=1)
        second = TDFinePolicy(top_k=1)
        action_a = first.adjust(
            graph, outcome_with(10.0, {"missing_stats": dict(stats)}), 60
        )
        # Rebuild an identical graph state for the replay.
        for node in action_a.switched:
            graph.switch_to_tree(node)
        action_b = second.adjust(
            graph, outcome_with(10.0, {"missing_stats": dict(stats)}), 60
        )
        assert action_a.switched == action_b.switched

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TDFinePolicy(top_k=0)


class TestDamping:
    class FlipFlopPolicy:
        """Always alternates expand/shrink with a switched node."""

        def __init__(self):
            self.turn = 0

        def adjust(self, graph, outcome, num_sensors):
            self.turn += 1
            kind = "expand" if self.turn % 2 else "shrink"
            return AdaptationAction(kind, (1,), control_messages=1)

    def test_oscillation_triggers_skip(self, graph):
        damped = DampedPolicy(self.FlipFlopPolicy(), window=4, max_skip=8)
        kinds = []
        for _ in range(12):
            action = damped.adjust(graph, outcome_with(0.0), 60)
            kinds.append(action.kind)
        assert "damped" in kinds

    def test_skip_grows_geometrically(self, graph):
        damped = DampedPolicy(self.FlipFlopPolicy(), window=2, max_skip=8)
        damped_counts = []
        streak = 0
        for _ in range(40):
            action = damped.adjust(graph, outcome_with(0.0), 60)
            if action.kind == "damped":
                streak += 1
            elif streak:
                damped_counts.append(streak)
                streak = 0
        assert damped_counts
        assert max(damped_counts) > min(damped_counts) or len(damped_counts) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DampedPolicy(self.FlipFlopPolicy(), window=1)


class TestEndToEndAdaptation:
    def test_no_loss_converges_to_all_tree(self, small_scenario, small_tree):
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 2),
        )
        scheme = TributaryDeltaScheme(
            small_scenario.deployment, graph, CountAggregate(), policy=TDFinePolicy()
        )
        simulator = EpochSimulator(
            small_scenario.deployment, NoLoss(), scheme, seed=1, adapt_interval=1
        )
        simulator.run(0, ConstantReadings(1.0), warmup=40)
        assert graph.delta_region() == set()

    def test_heavy_loss_expands_delta(self, small_scenario, small_tree):
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 0),
        )
        scheme = TributaryDeltaScheme(
            small_scenario.deployment, graph, CountAggregate(), policy=TDFinePolicy()
        )
        simulator = EpochSimulator(
            small_scenario.deployment,
            GlobalLoss(0.3),
            scheme,
            seed=1,
            adapt_interval=1,
        )
        simulator.run(0, ConstantReadings(1.0), warmup=60)
        assert len(graph.delta_region()) > 10

    def test_regional_loss_concentrates_delta(self, medium_scenario, medium_tree):
        failure = RegionalLoss(0.6, 0.02)
        graph = TDGraph(
            medium_scenario.rings,
            medium_tree,
            initial_modes_by_level(medium_scenario.rings, 0),
        )
        scheme = TributaryDeltaScheme(
            medium_scenario.deployment, graph, CountAggregate(), policy=TDFinePolicy()
        )
        simulator = EpochSimulator(
            medium_scenario.deployment, failure, scheme, seed=1, adapt_interval=1
        )
        simulator.run(0, ConstantReadings(1.0), warmup=80)
        delta = graph.delta_region() - {0}
        assert delta
        deployment = medium_scenario.deployment
        inside_delta = sum(
            1 for n in delta if failure.contains(deployment, n)
        )
        inside_all = sum(
            1 for n in deployment.sensor_ids if failure.contains(deployment, n)
        )
        delta_share = inside_delta / len(delta)
        node_share = inside_all / deployment.num_sensors
        assert delta_share > node_share  # leans into the failure region


class TestAdaptationInvariants:
    """Property: no sequence of policy actions can break graph correctness."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.2),  # contributing frac
                st.booleans(),  # coarse or fine policy this round
            ),
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_random_feedback_keeps_graph_valid(
        self, small_scenario, small_tree, rounds
    ):
        graph = TDGraph(
            small_scenario.rings,
            small_tree,
            initial_modes_by_level(small_scenario.rings, 1),
        )
        coarse = TDCoarsePolicy(smoothing=1)
        fine = TDFinePolicy(smoothing=1)
        sensors = small_scenario.deployment.num_sensors
        for fraction, use_coarse in rounds:
            stats = {
                node: (node * 7) % 5 for node in graph.switchable_m_nodes()
            }
            outcome = outcome_with(
                fraction * sensors, {"missing_stats": stats}
            )
            policy = coarse if use_coarse else fine
            policy.adjust(graph, outcome, sensors)
            graph.validate()  # Property 1 must hold after every action


# -- signal-only convergence -------------------------------------------------

#: Query payloads convergence must not depend on: plain aggregates, a
#: summary, the 4-query workload, a windowed filtered query, a grouped sum.
_CONVERGENCE_PAYLOADS = {
    "sum": dict(aggregate="sum"),
    "avg": dict(aggregate="avg"),
    "heavy-hitters": dict(aggregate="heavy_hitters:0.05"),
    "multiquery": dict(queries=EXPERIMENT_CONFIGS["multiquery"].queries),
    "windowed-filtered": dict(
        query="SELECT avg WHERE value > 50 WINDOW 5 MEAN"
    ),
    "grouped-sum": dict(query="SELECT sum GROUP BY region:1"),
}


def _convergence_config(scheme, use_batch=True, failure="global:0.2", **payload):
    return RunConfig(
        scheme=scheme,
        failure=failure,
        reading="uniform:10:100:0",
        num_sensors=80,
        converge_epochs=12,
        use_batch=use_batch,
        **payload,
    )


def _bound(config):
    """``(scenario, scheme, readings)``: the config's queries bound to a
    fresh scheme, the way ``run_config_result`` binds them."""
    scenario = build_scenario(config)
    readings = scenario.source
    workload = QueryWorkload.from_config(config)
    if workload is not None:
        aggregate, readings = workload.build(readings)
    elif config.query is not None:
        aggregate, readings = parse_query(config.query).build(
            readings, deployment=scenario.topology.deployment
        )
    else:
        aggregate = build_aggregate(config.aggregate)
    return scenario, scenario.build_scheme(aggregate), readings


def _adaptation_state(scheme):
    return (
        scheme.graph.modes(),
        list(scheme.adaptation_log),
        scheme.control_messages,
    )


def _converged_on_the_real_aggregate(config):
    """The reference: the warm-up wave carrying the full query payload."""
    scenario, scheme, readings = _bound(config)
    EpochSimulator(
        scenario.topology.deployment,
        scenario.failure,
        scheme,
        seed=config.scenario_seed,
        adapt_interval=1,
    ).run(0, readings, warmup=config.converge_epochs)
    return _adaptation_state(scheme)


class _Spy:
    """Forwards to ``inner`` and records every method called on it."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if not callable(value):
            return value

        def recorded(*args, **kwargs):
            self.calls.append(name)
            return value(*args, **kwargs)

        return recorded


class TestSignalOnlyConvergence:
    """``Scenario.converge`` carries only what adaptation reads."""

    @pytest.mark.parametrize("use_batch", [True, False], ids=["engine", "oracle"])
    @pytest.mark.parametrize("scheme", ["TD", "TD-Coarse"])
    @pytest.mark.parametrize("payload", sorted(_CONVERGENCE_PAYLOADS))
    def test_convergence_is_aggregate_independent(
        self, payload, scheme, use_batch
    ):
        config = _convergence_config(
            scheme, use_batch, **_CONVERGENCE_PAYLOADS[payload]
        )
        scenario, td, readings = _bound(config)
        real = td.aggregate
        scenario.converge(td, readings)
        assert td.aggregate is real
        state = _adaptation_state(td)
        assert state == _converged_on_the_real_aggregate(config)
        # The warm-up adapted at all: the comparison is not of two no-ops.
        assert any(kind != "none" for _, kind, _ in state[1])

    def test_m_mode_base_without_tree_partials_keeps_its_signal(self):
        """The carried synopsis is not ``None``: an M-mode base station that
        receives no tree partial would read that as "nothing arrived" and
        report a zero contributing estimate."""
        config = _convergence_config(
            "TD-Coarse", failure="global:0.3", aggregate="sum"
        )
        scenario, td, readings = _bound(config)
        scenario.converge(td, readings)
        graph = td.graph
        assert graph.is_multipath(BASE_STATION)
        assert not any(
            graph.is_tree(child) for child in graph.tree_children(BASE_STATION)
        )
        assert _adaptation_state(td) == _converged_on_the_real_aggregate(config)
        with td.signal_only(readings) as carried:
            outcome = td.run_epoch(
                config.converge_epochs,
                Channel(
                    scenario.topology.deployment,
                    scenario.failure,
                    seed=config.scenario_seed,
                ),
                carried,
            )
        assert outcome.contributing_estimate > 0

    @pytest.mark.parametrize("scheme", ["TD", "TD-Coarse"])
    def test_count_converges_on_itself(self, scheme):
        """Count's synopsis *is* the contributing count: nothing to swap."""
        config = _convergence_config(scheme, aggregate="count")
        scenario, td, readings = _bound(config)
        real = td.aggregate
        with td.signal_only(readings) as carried:
            assert td.aggregate is real
            assert carried is readings
        scenario.converge(td, readings)
        assert _adaptation_state(td) == _converged_on_the_real_aggregate(config)

    def test_convergence_touches_neither_aggregate_nor_stream(
        self, monkeypatch
    ):
        reading_calls = []
        for method in ("__call__", "batch", "block"):
            original = getattr(UniformReadings, method)
            monkeypatch.setattr(
                UniformReadings,
                method,
                lambda self, *args, _original=original, _method=method: (
                    reading_calls.append(_method),
                    _original(self, *args),
                )[1],
            )
        config = _convergence_config(
            "TD", **_CONVERGENCE_PAYLOADS["multiquery"]
        )
        scenario, td, readings = _bound(config)
        spy = _Spy(td.aggregate)
        td = scenario.build_scheme(spy)
        del spy.calls[:]
        scenario.converge(td, readings)
        assert td.aggregate is spy
        # Two declaration lookups (is it count? which column?); no local,
        # merge, fuse, convert, size or eval call.
        assert set(spy.calls) <= {"synopsis_counts_contributors", "column"}
        assert reading_calls == []
        # The probes are live: one measured epoch uses both (it runs fused,
        # reading the aggregate as its leaf slots).
        scenario.build_simulator(td).run(1, readings)
        assert "leaf_slots" in spy.calls
        assert reading_calls

    def test_real_aggregate_is_back_after_an_exception(self, monkeypatch):
        config = _convergence_config("TD", aggregate="sum")
        scenario, td, readings = _bound(config)
        real = td.aggregate
        payload_words = td._tree_payload_words

        def boom(epoch, outcome):
            raise RuntimeError("adaptation failed")

        monkeypatch.setattr(td, "adapt", boom)
        with pytest.raises(RuntimeError, match="adaptation failed"):
            scenario.converge(td, readings)
        assert td.aggregate is real
        assert td._tree_payload_words == payload_words


class TestConvergenceRunsFused:
    """Convergence carries the contributing count as a Count, which is
    additive and packable, so its blocks take the fused kernel whatever the
    query payload."""

    @pytest.mark.parametrize("scheme", ["TD", "TD-Coarse"])
    @pytest.mark.parametrize("payload", ["sum", "multiquery"])
    def test_converge_leaves_a_fused_engine_path(self, payload, scheme):
        config = _convergence_config(scheme, **_CONVERGENCE_PAYLOADS[payload])
        scenario, td, readings = _bound(config)
        scenario.converge(td, readings)
        assert td.engine_path == "fused"
