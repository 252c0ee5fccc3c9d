"""Tests for network-lifetime prediction."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.count import CountAggregate
from repro.core.tag_scheme import TagScheme
from repro.datasets.streams import ConstantReadings
from repro.errors import ConfigurationError
from repro.network.energy import EnergyModel
from repro.network.failures import NoLoss
from repro.network.lifetime import (
    LifetimeReport,
    MoteEnergyModel,
    lifetime_from_run,
    predict_lifetimes,
)
from repro.network.simulator import EpochSimulator


class TestMoteEnergyModel:
    def test_epoch_cost_composes(self):
        model = MoteEnergyModel(
            transmit=EnergyModel(per_message_uj=20.0, per_byte_uj=1.0),
            receive_per_message_uj=8.0,
            listen_per_epoch_uj=30.0,
            cpu_per_epoch_uj=0.05,
        )
        # 1 message of 2 words (8 bytes) + 3 receptions + listen + cpu.
        expected = (20.0 + 8.0) + 3 * 8.0 + 30.0 + 0.05
        assert model.epoch_cost_uj(1, 2, 3) == pytest.approx(expected)

    def test_communication_dominates_cpu(self):
        """The paper's premise, encoded in the defaults."""
        model = MoteEnergyModel()
        message_cost = model.transmit.transmission_cost(1, 2)
        assert message_cost > 100 * model.cpu_per_epoch_uj

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MoteEnergyModel(receive_per_message_uj=-1.0)

    def test_lifetime_churn_bills_an_idle_epoch(self):
        """Lifetime churn's overhead is the idle mote's duty-cycle bill."""
        from repro.network.churn import LifetimeChurn
        from repro.registry import build_churn_model

        overhead = MoteEnergyModel().epoch_cost_uj(0, 0, 2)
        assert overhead == LifetimeChurn(1.0).overhead_uj_per_epoch == 46.05
        spec = build_churn_model("lifetime:1")
        assert spec.overhead_uj_per_epoch == overhead


class TestPredictLifetimes:
    def test_basic_division(self):
        report = predict_lifetimes({1: 100.0, 2: 50.0}, battery_j=1.0)
        assert report.epochs_by_node[1] == pytest.approx(1e6 / 100.0)
        assert report.epochs_by_node[2] == pytest.approx(1e6 / 50.0)
        assert report.first_death_epochs == report.epochs_by_node[1]
        assert report.last_death_epochs == report.epochs_by_node[2]

    def test_idle_node_lives_forever(self):
        report = predict_lifetimes({1: 0.0}, battery_j=1.0)
        assert math.isinf(report.epochs_by_node[1])

    def test_fraction_dead(self):
        report = predict_lifetimes(
            {1: 100.0, 2: 50.0, 3: 25.0, 4: 10.0}, battery_j=1.0
        )
        assert report.epochs_to_fraction_dead(0.25) == report.first_death_epochs
        assert report.epochs_to_fraction_dead(1.0) == report.last_death_epochs
        with pytest.raises(ConfigurationError):
            report.epochs_to_fraction_dead(0.0)

    def test_hotspots_are_heaviest_spenders(self):
        report = predict_lifetimes(
            {1: 10.0, 2: 500.0, 3: 20.0}, battery_j=1.0
        )
        assert report.hotspots(1) == [(2, pytest.approx(1e6 / 500.0))]

    def test_render(self):
        report = predict_lifetimes({1: 100.0}, battery_j=2.0)
        text = report.render()
        assert "first death" in text
        assert "hotspots" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            predict_lifetimes({1: 1.0}, battery_j=0.0)
        with pytest.raises(ConfigurationError):
            predict_lifetimes({1: -5.0})

    @given(
        rates=st.dictionaries(
            st.integers(min_value=1, max_value=50),
            st.floats(min_value=0.1, max_value=1e4),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_first_death_below_last_death(self, rates):
        report = predict_lifetimes(rates, battery_j=5.0)
        assert report.first_death_epochs <= report.last_death_epochs


class TestLifetimeFromRun:
    def test_from_tag_run(self, small_scenario, small_tree):
        scheme = TagScheme(
            small_scenario.deployment, small_tree, CountAggregate()
        )
        simulator = EpochSimulator(
            small_scenario.deployment, NoLoss(), scheme, seed=0
        )
        epochs = 20
        run = simulator.run(epochs, ConstantReadings(1.0))
        report = lifetime_from_run(run, epochs, battery_j=5.0)
        assert len(report.epochs_by_node) == small_scenario.deployment.num_sensors
        assert 0 < report.first_death_epochs < math.inf

    def test_retransmissions_shorten_lifetime(self, small_scenario, small_tree):
        def run_with(attempts):
            scheme = TagScheme(
                small_scenario.deployment,
                small_tree,
                CountAggregate(),
                attempts=attempts,
            )
            simulator = EpochSimulator(
                small_scenario.deployment, NoLoss(), scheme, seed=0
            )
            run = simulator.run(20, ConstantReadings(1.0))
            return lifetime_from_run(run, 20, battery_j=5.0)

        assert (
            run_with(3).first_death_epochs < run_with(1).first_death_epochs
        )

    def test_validation(self, small_scenario, small_tree):
        scheme = TagScheme(
            small_scenario.deployment, small_tree, CountAggregate()
        )
        simulator = EpochSimulator(
            small_scenario.deployment, NoLoss(), scheme, seed=0
        )
        run = simulator.run(5, ConstantReadings(1.0))
        with pytest.raises(ConfigurationError):
            lifetime_from_run(run, 0)
