"""Tests for the epoch simulator and run bookkeeping."""

from __future__ import annotations

import pytest

from repro.aggregates.count import CountAggregate
from repro.core.tag_scheme import TagScheme
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.datasets.streams import ConstantReadings
from repro.errors import ConfigurationError
from repro.network.energy import EnergyModel
from repro.network.failures import GlobalLoss, NoLoss
from repro.network.simulator import EpochSimulator


@pytest.fixture()
def tag(small_scenario, small_tree):
    return TagScheme(small_scenario.deployment, small_tree, CountAggregate())


class TestRun:
    def test_epoch_records(self, small_scenario, tag):
        simulator = EpochSimulator(
            small_scenario.deployment, NoLoss(), tag, adapt_interval=0
        )
        run = simulator.run(5, ConstantReadings(1.0))
        assert len(run.epochs) == 5
        assert run.scheme_name == "TAG"
        assert all(r.true_value == 60 for r in run.epochs)

    def test_warmup_not_recorded(self, small_scenario, tag):
        simulator = EpochSimulator(
            small_scenario.deployment, NoLoss(), tag, adapt_interval=0
        )
        run = simulator.run(3, ConstantReadings(1.0), warmup=4)
        assert len(run.epochs) == 3
        assert run.epochs[0].epoch == 4  # warm-up epochs advanced the clock

    def test_rms_error_zero_when_exact(self, small_scenario, tag):
        simulator = EpochSimulator(
            small_scenario.deployment, NoLoss(), tag, adapt_interval=0
        )
        run = simulator.run(5, ConstantReadings(1.0))
        assert run.rms_error() == 0.0

    def test_rms_error_positive_under_loss(self, small_scenario, tag):
        simulator = EpochSimulator(
            small_scenario.deployment, GlobalLoss(0.3), tag, adapt_interval=0
        )
        run = simulator.run(5, ConstantReadings(1.0))
        assert run.rms_error() > 0.0

    def test_paired_runs_identical(self, small_scenario, small_tree):
        results = []
        for _ in range(2):
            scheme = TagScheme(
                small_scenario.deployment, small_tree, CountAggregate()
            )
            simulator = EpochSimulator(
                small_scenario.deployment, GlobalLoss(0.25), scheme, seed=9,
                adapt_interval=0,
            )
            results.append(simulator.run(6, ConstantReadings(1.0)).estimates)
        assert results[0] == results[1]

    def test_negative_epochs_rejected(self, small_scenario, tag):
        simulator = EpochSimulator(
            small_scenario.deployment, NoLoss(), tag, adapt_interval=0
        )
        with pytest.raises(ConfigurationError):
            simulator.run(-1, ConstantReadings(1.0))

    def test_negative_interval_rejected(self, small_scenario, tag):
        with pytest.raises(ConfigurationError):
            EpochSimulator(
                small_scenario.deployment, NoLoss(), tag, adapt_interval=-1
            )


class TestEnergyAccounting:
    def test_energy_report_populated(self, small_scenario, tag):
        simulator = EpochSimulator(
            small_scenario.deployment,
            NoLoss(),
            tag,
            adapt_interval=0,
            energy_model=EnergyModel(per_message_uj=10.0, per_byte_uj=1.0),
        )
        run = simulator.run(4, ConstantReadings(1.0))
        sensors = small_scenario.deployment.num_sensors
        assert run.energy.total_messages == 4 * sensors
        assert run.energy.total_uj > 0
        assert run.energy.average_message_words >= 1

    def test_sd_and_tag_message_parity(self, small_scenario, small_tree):
        # Both approaches transmit once per node per epoch (Table 1:
        # "minimal" messages for every scheme).
        tag = TagScheme(small_scenario.deployment, small_tree, CountAggregate())
        sd = SynopsisDiffusionScheme(
            small_scenario.deployment, small_scenario.rings, CountAggregate()
        )
        runs = {}
        for name, scheme in (("tag", tag), ("sd", sd)):
            simulator = EpochSimulator(
                small_scenario.deployment, NoLoss(), scheme, adapt_interval=0
            )
            run = simulator.run(2, ConstantReadings(1.0))
            runs[name] = sum(epoch.log.transmissions for epoch in run.epochs)
        assert runs["tag"] == runs["sd"]

    def test_sd_messages_not_smaller_than_tag(self, small_scenario, small_tree):
        tag = TagScheme(small_scenario.deployment, small_tree, CountAggregate())
        sd = SynopsisDiffusionScheme(
            small_scenario.deployment, small_scenario.rings, CountAggregate()
        )
        words = {}
        for name, scheme in (("tag", tag), ("sd", sd)):
            simulator = EpochSimulator(
                small_scenario.deployment, NoLoss(), scheme, adapt_interval=0
            )
            run = simulator.run(2, ConstantReadings(1.0))
            words[name] = sum(epoch.log.words_sent for epoch in run.epochs)
        assert words["sd"] >= words["tag"]


class TestMetricsHelpers:
    def test_mean_contributing_fraction(self, small_scenario, tag):
        simulator = EpochSimulator(
            small_scenario.deployment, NoLoss(), tag, adapt_interval=0
        )
        run = simulator.run(3, ConstantReadings(1.0))
        assert run.mean_contributing_fraction(
            small_scenario.deployment.num_sensors
        ) == pytest.approx(1.0)

    def test_relative_error_property(self, small_scenario, tag):
        simulator = EpochSimulator(
            small_scenario.deployment, GlobalLoss(0.4), tag, adapt_interval=0
        )
        run = simulator.run(4, ConstantReadings(1.0))
        for epoch in run.epochs:
            assert 0.0 <= epoch.relative_error <= 1.0


class TestReadingGathering:
    """Array consumers and list consumers must read the same values."""

    @staticmethod
    def _hide_block(source):
        # The same stream as a plain callable: no batch, no block.
        return lambda node, epoch: source(node, epoch)

    def test_block_matrix_equals_gathered_rows(self):
        from repro.datasets.streams import DiurnalLightReadings, UniformReadings
        from repro.network.simulator import gather_reading_block, gather_readings

        nodes, epochs = [3, 1, 400, 7], [0, 9, 10]
        for source in (
            UniformReadings(10, 100, seed=2),
            ConstantReadings(4.0),
            DiurnalLightReadings(seed=1),
            self._hide_block(UniformReadings(10, 100, seed=2)),
        ):
            matrix = gather_reading_block(source, nodes, epochs)
            assert matrix.dtype == "float64" and matrix.shape == (3, 4)
            assert matrix.tolist() == [
                gather_readings(source, nodes, epoch) for epoch in epochs
            ]
        assert gather_reading_block(source, [], epochs).shape == (3, 0)

    def test_truth_is_the_same_through_arrays_and_lists(self):
        from repro.aggregates.average import AverageAggregate
        from repro.aggregates.sum_ import SumAggregate
        from repro.datasets.streams import UniformReadings
        from repro.network.simulator import exact_over

        source = UniformReadings(10, 100, seed=6)
        nodes = list(range(1, 200))
        for aggregate in (SumAggregate(), CountAggregate(), AverageAggregate()):
            for epoch in (0, 17):
                assert exact_over(aggregate, source, nodes, epoch) == exact_over(
                    aggregate, self._hide_block(source), nodes, epoch
                )
