"""Tests for the parameter-sweep harness (quick configurations)."""

from __future__ import annotations

import pytest

from goldens import assert_golden
from repro.api import EXPERIMENT_CONFIGS, Session
from repro.errors import ConfigurationError
from repro.experiments.figures import rms_and_delta_fraction
from repro.experiments.sweeps import (
    SweepResult,
    sweep_adapt_interval,
    sweep_epsilon_split,
    sweep_expansion_heuristic,
)


class TestSweepResult:
    def make(self):
        result = SweepResult(
            name="demo", parameter="p", values=[1.0, 2.0, 3.0]
        )
        result.series["metric"] = [0.3, 0.1, 0.2]
        return result

    def test_points(self):
        result = self.make()
        assert result.points("metric") == [(1.0, 0.3), (2.0, 0.1), (3.0, 0.2)]

    def test_render_includes_table_and_chart(self):
        result = self.make()
        result.notes = "a note"
        text = result.render()
        assert "demo" in text
        assert "metric" in text
        assert "a note" in text
        assert "|" in text  # the chart grid


class TestThresholdSweep:
    """The ``sweep-threshold`` row's grid and series over another seed and
    loss rate than the row's own."""

    BASE = EXPERIMENT_CONFIGS["sweep_td"].replace(
        failure="global:0.25",
        scenario_seed=1,
        seed=1,
        num_sensors=100,
        epochs=30,
        converge_epochs=60,
    )

    def test_quick_sweep_shapes(self):
        report = Session().sweep({"threshold": [0.5, 0.9]}, self.BASE)
        series = rms_and_delta_fraction(report)
        assert len(series["rms_error"]) == 2
        assert len(series["delta_fraction"]) == 2
        # A higher contributing target cannot shrink the delta.
        low, high = series["delta_fraction"]
        assert high >= low
        # And should not hurt accuracy under loss.
        assert series["rms_error"][1] <= series["rms_error"][0] + 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.BASE.replace(threshold=0.0)


class TestAdaptIntervalSweep:
    def test_quick_sweep_control_traffic_falls(self):
        result = sweep_adapt_interval(
            values=(1, 20), loss_rate=0.2, quick=True, seed=1
        )
        frequent, rare = result.series["control_messages"]
        assert frequent >= rare
        assert all(rms < 1.0 for rms in result.series["rms_error"])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sweep_adapt_interval(values=(0,), quick=True)


class TestExpansionHeuristicSweep:
    def test_quick_sweep_runs_all_policies(self):
        result = sweep_expansion_heuristic(loss_rate=0.3, quick=True, seed=1)
        assert len(result.series["rms_error"]) == 5
        assert len(result.series["switched_nodes"]) == 5
        # The max/2 cut (index 1) must not expand slower than top-1 (index 0).
        assert (
            result.series["switched_nodes"][1]
            >= result.series["switched_nodes"][0]
        )

    def test_render(self):
        result = sweep_expansion_heuristic(loss_rate=0.3, quick=True, seed=1)
        text = result.render()
        assert "top-1 (paper base)" in text


@pytest.fixture(scope="module")
def split_sweep():
    """One two-point error-split sweep shared by the tests below (~2 s)."""
    return sweep_epsilon_split(fractions=(0.15, 0.85), quick=True, seed=1)


class TestEpsilonSplitSweep:
    def test_quick_sweep_shapes(self, split_sweep):
        result = split_sweep
        assert len(result.series["false_negative_rate"]) == 2
        assert all(
            0.0 <= rate <= 1.0 for rate in result.series["false_negative_rate"]
        )
        assert all(words > 0 for words in result.series["words_per_node"])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sweep_epsilon_split(fractions=(1.0,), quick=True)


def test_split_sweep_series_is_the_recorded_one(split_sweep):
    """Recorded on the hand-written Tributary-Delta frequent-items runner
    before it became a configuration of the shared Tributary-Delta pass."""
    assert_golden("sweeps/split", split_sweep.series)


class TestEpsilonSplitSeparation:
    def test_tree_heavy_split_inflates_delta_payloads(self, split_sweep):
        """The §6.3 trade made visible: starving the multi-path budget
        (large tree fraction) must cost strictly more words per node."""
        light_tree, heavy_tree = split_sweep.series["words_per_node"]
        assert heavy_tree > light_tree * 1.3
