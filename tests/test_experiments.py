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
import hashlib
import json
import math
import pathlib

import pytest

import repro.experiments
from repro.api import RunConfig, Session
from repro.errors import ConfigurationError

from repro.experiments.fig_domination import run_figure7b, run_table2
from repro.experiments.fig_topology import run_figure4
from repro.experiments.metrics import mean, relative_error, rms_error_series
from repro.plotting import format_table
from repro.registry import SCHEMES


class TestMetrics:
    def test_relative_error(self):
        assert relative_error(90, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert math.isinf(relative_error(1, 0))

    def test_rms_error_series(self):
        assert rms_error_series([100, 100], [100, 100]) == 0.0
        assert rms_error_series([90, 110], [100, 100]) == pytest.approx(0.1)

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


#: SHA-256 of ``json.dumps(series, sort_keys=True)`` per config-form
#: experiment (quick size, seed 0), recorded with its hand-wired
#: predecessor at the parent of the change that deleted it (commit bb5a955
#: for the first six, d28ed39 for fig4, lifetime and the sweeps). ``fig6``
#: is bb5a955's hand-wired loop at 150 nodes x 400 epochs over the
#: registry's ``timeline`` schedule; ``table1`` covers the Count rows;
#: ``fig4`` the sorted delta node sets of both panels under both
#: strategies; ``lifetime`` (first death, half dead) per scheme;
#: ``sweep-threshold`` the RMS series only (its ``delta_fraction`` is the
#: recorded size now).
FIGURE_GOLDENS = {
    "fig2": "594e401c54941adbc145bae05336df9be57081bb028c7bb93f9ec3ff813d79d5",
    "fig4": "226491efb16c6ffa7fe2c54e281143a2ba3e1a4eebdf4b5e8a1fcc9c27c4259b",
    "fig5a": "b70fdd0fde4b7f717c4e597b8f6a060b45f0f67e17e808ef1bd42f597db76390",
    "fig5b": "2a15d08e24833bf35efe528abb63b73f39f2571fb324ed7d7fb7a8a793468993",
    "fig6": "04d27600b310ef06803a1f47022c0d22a3e1441af0129b2d9772273ba521be1f",
    "churn-timeline": "faa700ce15f41e85372c1584735ae95ff90d6ba0b9da82b7f71def09ed29b780",
    "lifetime": "455a08d4709756d456cb6e33449093afd6d1d9794e6b73a3ccba7ecc9f813e2d",
    "sweep-heuristic": "0f3c5a0b7d2c29c7c96fb0e8d867ef37509521c662b7bc05b6ef50bbe71cdf46",
    "sweep-interval": "ad4f26b898ce1bfcf006e29adc49f7d860da7d329b27b91cd569b4e5a7321d8f",
    "sweep-threshold": "26196b09596bb48eadfa67dfb26b006f441694a5dc474971f7589b22d56ad5a7",
    "table1": "e55aa696e36991992ef91c8b3bd70a9a8a8d61282d83bc2471b780fbe558ce45",
}

#: SHA-256 of the Section 6 series (quick size, seed 0), recorded on the
#: hand-written frequent-items and quantiles runners before they became
#: configurations of one tree pass and one Tributary-Delta pass: fig8's
#: rows, fig9a's false negatives and positives, Table 1's Freq. Items rows.
SECTION6_GOLDENS = {
    "fig8": "0bdf7825d355004c25668a48a7ae99cdc3c9a08d7f6b17d6c352a0beb91d729c",
    "fig9a": "1548ba7c509b62138dc99d22370eb20b289e926905a6fa1c377db091c7d7714b",
    "table1": "dcad2895e18433e4aec9807c49cf40c33f091f80d146c85c9c8cb22d6a81161e",
}


def section6_series(name, result):
    """The part of a quick figure ``SECTION6_GOLDENS`` pins."""
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
    "fig_count_rms",
    "fig_latency",
    "fig_lifetime",
    "fig_regional",
    "fig_timeline",
    "fig_topology",
    "labdata_rms",
    "sweeps",
    "table1",
)
#: ``sweeps`` keeps the geometry ``sweep_epsilon_split`` wires by hand
#: until frequent items get an engine form.
STILL_HAND_WIRED = {
    "sweeps": {"make_synthetic_scenario", "build_bushy_tree", "TDGraph"},
}


class TestFigureGoldens:
    @pytest.mark.parametrize("name", sorted(FIGURE_GOLDENS))
    def test_config_path_reproduces_the_hand_wired_series(
        self, quick_figure, name
    ):
        result = quick_figure(name)
        if name == "table1":
            series = [
                dataclasses.asdict(row)
                for row in result.rows
                if row.aggregate == "Count"
            ]
        elif name in ("fig6", "churn-timeline"):
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
        elif name.startswith("sweep-"):
            series = result.series
        else:
            series = result.rms
        digest = hashlib.sha256(
            json.dumps(series, sort_keys=True).encode()
        ).hexdigest()
        assert digest == FIGURE_GOLDENS[name]

    @pytest.mark.parametrize("name", sorted(SECTION6_GOLDENS))
    def test_section6_series_are_the_recorded_ones(self, quick_figure, name):
        series = section6_series(name, quick_figure(name))
        digest = hashlib.sha256(
            json.dumps(series, sort_keys=True).encode()
        ).hexdigest()
        assert digest == SECTION6_GOLDENS[name]

    def test_delta_sizes_are_the_recorded_ones(self, quick_figure):
        # The size each run's last epoch *recorded*, not the graph after
        # the adaptation that followed it (which read 94/102/140 here).
        assert quick_figure("fig2").delta_sizes["TD"][:4] == [0, 92, 96, 137]
        assert quick_figure("labdata").delta_sizes == {"TD-Coarse": 55, "TD": 48}
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
