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
        # The same stream as a plain callable: no block.
        return lambda node, epoch: source(node, epoch)

    def test_block_matrix_equals_gathered_rows(self):
        from repro.datasets.streams import DiurnalLightReadings, UniformReadings
        from repro.network.simulator import gather_reading_block

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
                [source(node, epoch) for node in nodes] for epoch in epochs
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
                truth = aggregate.exact([source(node, epoch) for node in nodes])
                assert exact_over(aggregate, source, nodes, [epoch]) == [(truth, {})]
                assert exact_over(
                    aggregate, self._hide_block(source), nodes, [epoch]
                ) == [(truth, {})]


class TestNonFiniteTruth:
    """A Min/Max over no matching reading answers +/-inf; when the estimate
    equals that truth the run reports no error, not NaN."""

    @staticmethod
    def _config(query, scheme, **overrides):
        from repro.api import RunConfig

        return RunConfig(
            scheme=scheme,
            num_sensors=40,
            epochs=4,
            converge_epochs=0,
            failure="none",
            reading="uniform:10:100:0",
            query=query,
            **overrides,
        )

    @pytest.mark.parametrize("retention", ["all", "stream"])
    @pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
    @pytest.mark.parametrize("select", ["max", "min"])
    def test_exact_infinite_answer_has_zero_error(self, select, scheme, retention):
        from repro.api import Session

        query = f"SELECT {select} WHERE value > 200"
        report = Session().run(self._config(query, scheme, retention=retention))
        neutral = float("-inf") if select == "max" else float("inf")
        for epoch in report.result.epochs:
            assert epoch.estimate == epoch.true_value == neutral
            assert epoch.relative_error == 0.0
        assert report.rms_error() == 0.0

    @pytest.mark.parametrize("select", ["max", "min"])
    def test_grouped_regions_have_zero_error(self, select):
        from repro.api import Session

        query = f"SELECT {select} WHERE value > 200 GROUP BY region:1"
        report = Session().run(self._config(query, "TD"))
        assert report.group_names()
        for name in report.group_names():
            assert report.group_rms_error(name) == 0.0
        assert report.rms_error() == 0.0

    def test_series_helpers(self):
        from repro.network.links import TransmissionLog
        from repro.network.simulator import EpochResult, RunResult, relative_deviation

        def run(*pairs):
            epochs = [
                EpochResult(epoch, estimate, truth, 0, 0.0, TransmissionLog())
                for epoch, (estimate, truth) in enumerate(pairs)
            ]
            return RunResult(scheme_name="TD", epochs=epochs, energy=None)

        def relative_error(estimate, truth):
            return run((estimate, truth)).epochs[0].relative_error

        inf = float("inf")
        assert relative_error(-inf, -inf) == relative_error(inf, inf) == 0.0
        assert relative_error(0.0, -inf) == relative_error(-inf, inf) == inf
        assert relative_error(0.0, 0.0) == 0.0 and relative_error(1.0, 0.0) == inf
        assert relative_deviation(0.0, -inf) == relative_deviation(1.0, 0.0) == 0.0
        assert run((-inf, -inf), (3.0, 2.0)).rms_error() == (0.25 / 2) ** 0.5
