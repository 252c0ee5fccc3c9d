"""Smoke tests for the experiment modules (quick configurations).

These verify that every table/figure regenerator runs end-to-end, that the
config-form figures reproduce the series their hand-wired predecessors
produced, and that the paper's methodology (paired draws, stabilise then
measure) holds on the config path. The paper's qualitative *shape* claims
are gated in ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import math
import pathlib

import pytest

import repro.experiments
from goldens import assert_golden
from repro.api import RunConfig, Session
from repro.errors import ConfigurationError

from repro.experiments.fig_domination import run_figure7b, run_table2
from repro.experiments.fig_topology import run_figure4
from repro.experiments.figures import recorded_delta_size
from repro.experiments.metrics import mean
from repro.plotting import format_table
from repro.registry import SCHEMES


class TestMetrics:
    """The engine's own metrics, which every figure reports."""

    @staticmethod
    def _run(estimates, truths):
        from repro.network.links import TransmissionLog
        from repro.network.simulator import EpochResult, RunResult

        epochs = [
            EpochResult(epoch, estimate, truth, 0, 0.0, TransmissionLog())
            for epoch, (estimate, truth) in enumerate(zip(estimates, truths))
        ]
        return RunResult(scheme_name="TD", epochs=epochs, energy=None)

    def test_relative_error(self):
        assert self._run([90], [100]).relative_errors == [pytest.approx(0.1)]
        assert self._run([0, 1], [0, 0]).relative_errors[0] == 0.0
        assert math.isinf(self._run([0, 1], [0, 0]).relative_errors[1])

    def test_rms_error_series(self):
        assert self._run([100, 100], [100, 100]).rms_error() == 0.0
        assert self._run([90, 110], [100, 100]).rms_error() == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "estimates, truths",
        [
            ([10, 6], [0, 5]),
            ([0.0, 3.0], [0.0, 0.0]),
            ([97.5, 0.0, 61.25, 140.0, 3.0], [100.0, 0.0, 60.0, 128.0, 0.0]),
        ],
    )
    def test_rms_error_series_is_the_run_result_rms(self, estimates, truths):
        """The paper's (1/T) sum of squared relative deviations, rooted: a
        zero-truth epoch adds no deviation but still counts in T."""
        from repro.network.simulator import relative_deviation

        deviations = [
            relative_deviation(estimate, truth)
            for estimate, truth in zip(estimates, truths)
        ]
        expected = (sum(d * d for d in deviations) / len(deviations)) ** 0.5
        assert self._run(estimates, truths).rms_error() == expected
        if truths == [0, 5]:
            assert expected == pytest.approx(0.1414214)

    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([1.0, 3.0]) == 2.0

    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0]


class TestRunnerShapes:
    """The paper's per-run recipe, through the config path."""

    @staticmethod
    def _rms(scheme, failure, epochs, converge_epochs=0):
        config = RunConfig(
            scheme=scheme,
            failure=failure,
            num_sensors=80,
            scenario_seed=3,
            epochs=epochs,
            converge_epochs=converge_epochs,
        )
        return Session().run(config).rms_error()

    def test_all_schemes_present(self):
        assert set(SCHEMES.available()) == {"TAG", "SD", "TD-Coarse", "TD"}

    def test_no_loss_tag_exact_sd_approx(self):
        assert self._rms("TAG", "global:0.0", 5) == 0.0
        assert 0.0 < self._rms("SD", "global:0.0", 5) < 0.5

    def test_high_loss_sd_beats_tag(self):
        assert self._rms("SD", "global:0.3", 8) < self._rms(
            "TAG", "global:0.3", 8
        )

    def test_td_adapts_between(self):
        td = self._rms("TD", "global:0.25", 8, converge_epochs=60)
        assert td < self._rms("TAG", "global:0.25", 8)


class TestFigureSmoke:
    def test_table2_matches_paper(self):
        result = run_table2()
        assert result.te_profile == [37, 10, 6, 1]
        assert result.te_fractions[0] == pytest.approx(37 / 54)
        assert result.t2_fractions == [
            pytest.approx(8 / 15),
            pytest.approx(12 / 15),
            pytest.approx(14 / 15),
            pytest.approx(1.0),
        ]
        # Both example trees are 2-dominating, the property Table 2
        # illustrates.
        assert result.te_domination >= 2.0
        assert result.t2_domination >= 2.0
        assert "Te" in result.render()

    def test_figure7a_our_tree_wins(self, quick_figure):
        result = quick_figure("fig7a")
        assert len(result.our_tree) == len(result.parameters)
        wins = sum(
            1 for ours, tag in zip(result.our_tree, result.tag_tree) if ours >= tag
        )
        assert wins >= len(result.parameters) - 1

    def test_figure7b_runs(self):
        result = run_figure7b(quick=True, widths=(10, 30))
        assert len(result.our_tree) == 2
        assert result.render()

    def test_figure4_concentrates(self):
        result = run_figure4(inside_rate=0.4, quick=True, converge_epochs=60)
        assert result.delta  # a delta formed
        assert result.concentration > 1.0  # leaning into the failure region
        assert "B" in result.render_map()

    def test_figure4_td_more_directional_than_coarse(self, quick_figure):
        # Section 7.2: TD-Coarse "expands uniformly around the base
        # station", TD "only in the direction of the failure region".
        td = quick_figure("fig4").panels[0]
        assert td.concentration > _quick_coarse_figure4(0.3).concentration

    def test_figure4_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError, match="unknown scheme 'nope'"):
            run_figure4(inside_rate=0.3, quick=True, strategy="nope")

    def test_figure8_orderings(self, quick_figure):
        result = quick_figure("fig8")
        labels = {row[1] for row in result.rows}
        assert labels == {
            "Min Max-load",
            "Min Total-load",
            "Hybrid",
            "Quantiles-based",
        }
        # The headline orderings of Figure 8.
        lab_quantiles_avg, _ = result.loads("LabData", "Quantiles-based")
        lab_total_avg, _ = result.loads("LabData", "Min Total-load")
        assert lab_quantiles_avg > lab_total_avg
        synthetic_total_avg, _ = result.loads("Synthetic", "Min Total-load")
        synthetic_max_avg, _ = result.loads("Synthetic", "Min Max-load")
        assert synthetic_total_avg < synthetic_max_avg

    def test_figure9_tag_degrades_fastest(self, quick_figure):
        result = quick_figure("fig9a")
        tag_curve = result.false_negatives["TAG"]
        sd_curve = result.false_negatives["SD"]
        assert tag_curve[-1] > sd_curve[-1]
        assert tag_curve[0] <= 10.0  # near-zero FN without loss


@functools.cache
def _quick_coarse_figure4(inside_rate):
    """Figure 4's TD-Coarse counterpart of a ``quick_figure("fig4")`` panel."""
    return run_figure4(
        inside_rate=inside_rate, quick=True, strategy="td-coarse"
    )


class TestRunPaired:
    def test_paired_runs_share_loss_draws(self):
        base = RunConfig(
            scheme="TAG",
            seed=3,
            failure="global:0.2",
            num_sensors=60,
            scenario_seed=11,
            epochs=5,
            converge_epochs=0,
        )
        report = Session().sweep({"scheme": ["TAG", "SD"]}, base)
        assert set(report.rms_by_scheme()) == {"TAG", "SD"}
        # Identical seeds: re-running TAG reproduces its series exactly.
        assert Session().run(base).result.estimates == (
            report.results[0].estimates
        )


#: Config-form experiments whose quick series (seed 0) the ledger pins.
FIGURES = (
    "churn-timeline", "fig2", "fig4", "fig5a", "fig5b", "fig6", "labdata",
    "lifetime", "sweep-heuristic", "sweep-interval", "sweep-threshold",
    "table1",
)


def section6_series(name, result):
    """The part of a quick fig8, fig9a or Table 1 the ledger pins."""
    if name == "fig8":
        return result.rows
    if name == "fig9a":
        return [result.false_negatives, result.false_positives]
    return [
        dataclasses.asdict(row)
        for row in result.rows
        if row.aggregate == "Freq. Items"
    ]


#: What the config-form experiment modules must not import: the raw
#: constructors their ``EXPERIMENT_CONFIGS`` entry replaces.
RAW_CONSTRUCTORS = {
    "make_synthetic_scenario",
    "build_bushy_tree",
    "TDGraph",
    "EpochSimulator",
    "TagScheme",
    "SynopsisDiffusionScheme",
    "TributaryDeltaScheme",
}
CONFIG_FORM_MODULES = (
    "fig_churn",
    "fig_latency",
    "fig_lifetime",
    "fig_topology",
    "figures",
    "sweeps",
    "table1",
)
#: ``sweeps`` keeps the geometry ``sweep_epsilon_split`` wires by hand
#: until frequent items get an engine form.
STILL_HAND_WIRED = {
    "sweeps": {"make_synthetic_scenario", "build_bushy_tree", "TDGraph"},
}


class TestFigureGoldens:
    @pytest.mark.parametrize("name", FIGURES)
    def test_config_path_reproduces_the_hand_wired_series(
        self, quick_figure, name
    ):
        """Each series as recorded with its hand-wired predecessor at the
        parent of the change that deleted it (commit bb5a955 for the first
        six, d28ed39 for fig4, lifetime and the sweeps). ``fig6`` is
        bb5a955's hand-wired loop at 150 nodes x 400 epochs over the
        registry's ``timeline`` schedule; ``table1`` covers the Count rows;
        ``fig4`` the sorted delta node sets of both panels under both
        strategies; ``lifetime`` (first death, half dead) per scheme;
        ``sweep-threshold`` the RMS series only (its ``delta_fraction`` is
        the recorded size now). ``labdata`` (RMS per scheme) was recorded on
        its own module at the parent of the change that made it a row of
        the figure table."""
        result = quick_figure(name)
        if name == "table1":
            series = [
                dataclasses.asdict(row)
                for row in result.rows
                if row.aggregate == "Count"
            ]
        elif name == "fig6":
            series = {
                config.scheme: run.relative_errors
                for config, run in result.report.rows()
            }
        elif name == "churn-timeline":
            series = result.relative_errors
        elif name == "fig4":
            series = {}
            for panel in result.panels:
                coarse = _quick_coarse_figure4(panel.inside_rate)
                series[f"{panel.inside_rate}/td"] = sorted(panel.delta)
                series[f"{panel.inside_rate}/td-coarse"] = sorted(coarse.delta)
        elif name == "lifetime":
            series = {
                scheme: [
                    report.first_death_epochs,
                    report.epochs_to_fraction_dead(0.5),
                ]
                for scheme, report in result.reports.items()
            }
        elif name == "sweep-threshold":
            series = result.series["rms_error"]
        elif name == "labdata":
            series = dict(zip(result.x, result.series["RMS error"]))
        else:
            series = result.series
        assert_golden(f"figures/{name}", series)

    @pytest.mark.parametrize("name", ("fig8", "fig9a", "table1"))
    def test_section6_series_are_the_recorded_ones(self, quick_figure, name):
        """Recorded on the hand-written frequent-items and quantiles runners
        before they became configurations of one tree pass and one
        Tributary-Delta pass: fig8's rows, fig9a's false negatives and
        positives, Table 1's Freq. Items rows."""
        series = section6_series(name, quick_figure(name))
        assert_golden(f"section6-figures/{name}", series)

    def test_delta_sizes_are_the_recorded_ones(self, quick_figure):
        # The size each run's last epoch *recorded*, not the graph after
        # the adaptation that followed it (which read 94/102/140 here).
        td = [
            recorded_delta_size(run)
            for config, run in quick_figure("fig2").report.rows()
            if config.scheme == "TD"
        ]
        assert td[:4] == [0, 92, 96, 137]
        labdata = quick_figure("labdata")
        assert dict(zip(labdata.x, labdata.series["delta size"])) == {
            "TAG": 0, "SD": 0, "TD-Coarse": 55, "TD": 48,
        }
        # Same rule for the threshold sweep (the post-adaptation graph read
        # 44/62/94 of 101 nodes at thresholds 0.7/0.8/0.9).
        fractions = quick_figure("sweep-threshold").series["delta_fraction"]
        assert [round(f * 101) for f in fractions] == [0, 41, 44, 92, 100, 100]

    @pytest.mark.parametrize("module", CONFIG_FORM_MODULES)
    def test_config_form_modules_import_no_raw_constructor(self, module):
        path = pathlib.Path(repro.experiments.__file__).with_name(f"{module}.py")
        imported = {
            alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        allowed = STILL_HAND_WIRED.get(module, set())
        assert imported & RAW_CONSTRUCTORS <= allowed


class TestLatencyExperiment:
    def test_quick_run_shapes(self, quick_figure):
        result = quick_figure("latency")
        assert result.overhead > 1.0
        text = result.render()
        assert "footnote 6" in text
        assert result.table["tree (count)"] == result.table["multi-path (count)"]


class TestLifetimeExperiment:
    def test_quick_run_orderings(self, quick_figure):
        comparison = quick_figure("lifetime")
        assert set(comparison.reports) == {"TAG", "SD", "TD"}
        tag = comparison.reports["TAG"]
        sd = comparison.reports["SD"]
        assert tag.first_death_epochs > sd.first_death_epochs
        assert "first death" in comparison.render()
