"""Tests for Gilbert-Elliott bursty loss and node-crash failure models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.count import CountAggregate
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.datasets.streams import ConstantReadings
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import ConfigurationError
from repro.network.burst import (
    CrashWindow,
    GilbertElliottLoss,
    NodeCrashLoss,
    matched_gilbert_elliott,
)
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.network.placement import placement_from_points
from repro.network.simulator import EpochSimulator
from repro.tree.construction import build_bushy_tree


@pytest.fixture()
def deployment():
    return placement_from_points(
        [(2.0, 2.0), (15.0, 15.0), (5.0, 18.0)],
        base_position=(10.0, 10.0),
        width=20,
        height=20,
    )


class TestGilbertElliott:
    def test_deterministic_in_seed(self, deployment):
        a = GilbertElliottLoss(seed=3)
        b = GilbertElliottLoss(seed=3)
        for epoch in range(50):
            assert a.loss_rate(deployment, 1, 2, epoch) == b.loss_rate(
                deployment, 1, 2, epoch
            )

    def test_different_seeds_differ(self, deployment):
        a = GilbertElliottLoss(seed=1, p_enter_bad=0.3, p_exit_bad=0.3)
        b = GilbertElliottLoss(seed=2, p_enter_bad=0.3, p_exit_bad=0.3)
        rates_a = [a.loss_rate(deployment, 1, 2, e) for e in range(100)]
        rates_b = [b.loss_rate(deployment, 1, 2, e) for e in range(100)]
        assert rates_a != rates_b

    def test_non_monotone_epoch_queries_are_consistent(self, deployment):
        model = GilbertElliottLoss(seed=5, p_enter_bad=0.2, p_exit_bad=0.2)
        forward = [model.state(1, 2, e) for e in range(30)]
        # Query backwards and shuffled; must reproduce the same states.
        assert model.state(1, 2, 7) == forward[7]
        assert model.state(1, 2, 29) == forward[29]
        assert model.state(1, 2, 0) == forward[0]

    def test_links_have_independent_chains(self, deployment):
        model = GilbertElliottLoss(seed=0, p_enter_bad=0.4, p_exit_bad=0.4)
        states_12 = [model.state(1, 2, e) for e in range(200)]
        states_13 = [model.state(1, 3, e) for e in range(200)]
        assert states_12 != states_13

    def test_loss_rates_follow_state(self, deployment):
        model = GilbertElliottLoss(
            good_loss=0.1, bad_loss=0.9, p_enter_bad=0.5, p_exit_bad=0.5, seed=1
        )
        for epoch in range(50):
            expected = 0.9 if model.is_bad(1, 2, epoch) else 0.1
            assert model.loss_rate(deployment, 1, 2, epoch) == expected

    def test_stationary_fraction(self):
        model = GilbertElliottLoss(p_enter_bad=0.1, p_exit_bad=0.3)
        assert model.stationary_bad_fraction == pytest.approx(0.25)

    def test_empirical_bad_fraction_near_stationary(self, deployment):
        model = GilbertElliottLoss(p_enter_bad=0.1, p_exit_bad=0.3, seed=11)
        horizon = 3000
        bad = sum(model.is_bad(1, 2, epoch) for epoch in range(horizon))
        assert bad / horizon == pytest.approx(0.25, abs=0.06)

    def test_bursts_are_correlated(self, deployment):
        """Consecutive-epoch states agree far more often than independent
        draws with the same marginal would."""
        model = GilbertElliottLoss(p_enter_bad=0.05, p_exit_bad=0.15, seed=7)
        horizon = 2000
        states = [model.state(1, 2, epoch) for epoch in range(horizon)]
        agreement = sum(
            states[i] == states[i + 1] for i in range(horizon - 1)
        ) / (horizon - 1)
        fraction = sum(states) / horizon
        independent_agreement = fraction**2 + (1 - fraction) ** 2
        assert agreement > independent_agreement + 0.1

    def test_start_bad(self, deployment):
        model = GilbertElliottLoss(start_bad=True, p_enter_bad=0.0, p_exit_bad=0.0)
        assert model.is_bad(1, 2, 0)
        assert model.is_bad(1, 2, 40)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(good_loss=1.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(p_enter_bad=0.2, p_exit_bad=0.0)
        model = GilbertElliottLoss()
        with pytest.raises(ConfigurationError):
            model.state(1, 2, -1)

    def test_works_with_channel(self, deployment):
        model = GilbertElliottLoss(
            good_loss=0.0, bad_loss=1.0, p_enter_bad=0.3, p_exit_bad=0.3, seed=2
        )
        channel = Channel(deployment, model, seed=0)
        outcomes = [channel.delivered(1, 2, epoch) for epoch in range(100)]
        # With good_loss=0 / bad_loss=1, outcomes mirror the chain exactly.
        for epoch, outcome in enumerate(outcomes):
            assert outcome == (not model.is_bad(1, 2, epoch))


class TestMatchedGilbertElliott:
    def test_matches_target_stationary_loss(self):
        model = matched_gilbert_elliott(target_loss=0.3, seed=0)
        assert model.expected_loss_rate == pytest.approx(0.3, abs=1e-9)

    @given(target=st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def test_matches_across_targets(self, target):
        # Targets above ~0.58 are infeasible for the default burst shape
        # (p_enter_bad would exceed 1); the validation test covers that edge.
        model = matched_gilbert_elliott(target_loss=target)
        assert model.expected_loss_rate == pytest.approx(target, abs=1e-9)

    def test_mean_burst_length_sets_exit_rate(self):
        model = matched_gilbert_elliott(target_loss=0.3, mean_burst_epochs=5.0)
        assert model.p_exit_bad == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            matched_gilbert_elliott(target_loss=0.9, bad_loss=0.8)
        with pytest.raises(ConfigurationError):
            matched_gilbert_elliott(target_loss=0.01, good_loss=0.02)
        with pytest.raises(ConfigurationError):
            matched_gilbert_elliott(target_loss=0.3, mean_burst_epochs=0.0)


class TestBurstinessAblation:
    def test_multipath_beats_the_tree_bursty_or_not(self):
        """Same mean loss, different time structure: the ordering survives."""
        scenario = make_synthetic_scenario(num_sensors=80, seed=8)
        tree = build_bushy_tree(scenario.rings, seed=8)
        deployment = scenario.deployment
        for failure in (
            GlobalLoss(0.25),
            matched_gilbert_elliott(0.25, seed=8),
        ):
            tag = TagScheme(deployment, tree, CountAggregate())
            sd = SynopsisDiffusionScheme(
                deployment, scenario.rings, CountAggregate()
            )
            tag_rms, sd_rms = (
                EpochSimulator(deployment, failure, scheme, seed=3)
                .run(20, ConstantReadings(1.0))
                .rms_error()
                for scheme in (tag, sd)
            )
            assert sd_rms < tag_rms


class TestCrashWindow:
    def test_contains(self):
        window = CrashWindow(10, 20)
        assert not window.contains(9)
        assert window.contains(10)
        assert window.contains(19)
        assert not window.contains(20)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashWindow(-1, 5)
        with pytest.raises(ConfigurationError):
            CrashWindow(5, 5)


class TestNodeCrashLoss:
    def test_crashed_sender_loses_everything(self, deployment):
        model = NodeCrashLoss.single_window([1], start=5, end=10)
        assert model.loss_rate(deployment, 1, 2, 7) == 1.0
        assert model.loss_rate(deployment, 1, 2, 4) == 0.0
        assert model.loss_rate(deployment, 1, 2, 10) == 0.0

    def test_crashed_receiver_hears_nothing_by_default(self, deployment):
        model = NodeCrashLoss.single_window([2], start=0, end=3)
        assert model.loss_rate(deployment, 1, 2, 1) == 1.0

    def test_receiver_drops_can_be_disabled(self, deployment):
        model = NodeCrashLoss(
            {2: (CrashWindow(0, 3),)}, drop_receptions=False
        )
        assert model.loss_rate(deployment, 1, 2, 1) == 0.0
        assert model.loss_rate(deployment, 2, 1, 1) == 1.0

    def test_base_model_applies_outside_windows(self, deployment):
        model = NodeCrashLoss.single_window(
            [1], start=5, end=10, base=GlobalLoss(0.2)
        )
        assert model.loss_rate(deployment, 1, 2, 0) == 0.2
        assert model.loss_rate(deployment, 1, 2, 7) == 1.0

    def test_crashed_nodes_listing(self, deployment):
        model = NodeCrashLoss(
            {
                3: (CrashWindow(0, 2),),
                1: (CrashWindow(1, 4),),
            }
        )
        assert model.crashed_nodes(0) == (3,)
        assert model.crashed_nodes(1) == (1, 3)
        assert model.crashed_nodes(2) == (1,)
        assert model.crashed_nodes(4) == ()

    def test_multiple_windows_per_node(self, deployment):
        model = NodeCrashLoss({1: (CrashWindow(0, 2), CrashWindow(5, 6))})
        assert model.is_crashed(1, 1)
        assert not model.is_crashed(1, 3)
        assert model.is_crashed(1, 5)
