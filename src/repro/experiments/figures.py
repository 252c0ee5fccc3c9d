"""The figure table: :data:`FIGURES`, its two row kinds and the one result
type and renderer of its sweep rows (see :mod:`repro.experiments`)."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.api import EXPERIMENT_CONFIGS, Session, SweepReport
from repro.experiments.fig_churn import run_churn_timeline
from repro.experiments.fig_domination import run_figure7a, run_figure7b, run_table2
from repro.experiments.fig_fi_load import run_figure8
from repro.experiments.fig_fi_loss import run_figure9
from repro.experiments.fig_latency import run_latency
from repro.experiments.fig_lifetime import run_lifetime
from repro.experiments.fig_topology import run_figure4_panels
from repro.experiments.metrics import mean
from repro.experiments.sweeps import (
    sweep_adapt_interval,
    sweep_epsilon_split,
    sweep_expansion_heuristic,
)
from repro.experiments.table1 import run_table1
from repro.plotting import format_table

SCHEMES = ("TAG", "SD", "TD-Coarse", "TD")

#: Figure 2's x axis (the Count teaser).
FIG2_LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)

#: Figure 5's x axis: the Global(p) rate in 5(a), the in-region rate of
#: Regional(p, 0.05) in 5(b).
FIG5_LOSS_RATES = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0)

#: The quick size of every loss sweep (Figures 2, 5(a) and 5(b)).
LOSS_SWEEP_QUICK = {"num_sensors": 150, "epochs": 30, "converge_epochs": 60}

#: The four equally long phases of Figure 6's ``timeline`` schedule.
FIG6_PHASES = ("quiet", "regional(0.3,0)", "global(0.3)", "quiet again")

#: The contributing-percentage targets of the Section 4.1 dial.
THRESHOLDS = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99)


def recorded_delta_size(run) -> int:
    """The delta size a run's last measured epoch recorded (0 for the
    non-adaptive schemes): the size that epoch ran with, not the graph after
    the adaptation that followed it."""
    return int(run.epochs[-1].extra.get("delta_size", 0))


def phase_means(report: SweepReport) -> Dict[str, List[float]]:
    """Figure 6: each scheme's per-epoch relative error, averaged over the
    schedule's four phases (the quarters of the recorded range)."""
    series = {}
    for config, run in report.rows():
        errors = run.relative_errors
        cuts = [len(errors) * quarter // 4 for quarter in range(5)]
        series[config.scheme] = [
            mean(errors[start:end]) for start, end in zip(cuts, cuts[1:])
        ]
    return series


def rms_and_delta_size(report: SweepReport) -> Dict[str, List]:
    """Each cell's RMS error and recorded delta size."""
    return {
        "RMS error": [run.rms_error() for run in report.results],
        "delta size": [recorded_delta_size(run) for run in report.results],
    }


def rms_and_delta_fraction(report: SweepReport) -> Dict[str, List[float]]:
    """Each cell's RMS error and recorded delta size over the deployment's
    node count (base station included)."""
    reports = report.reports()
    return {
        "rms_error": [run.rms_error() for run in reports],
        "delta_fraction": [
            recorded_delta_size(run.result) / (run.num_sensors() + 1)
            for run in reports
        ],
    }


def _cell(value, digits: int) -> str:
    return f"{value:.{digits}f}" if isinstance(value, float) else str(value)


@dataclass
class FigureResult:
    """A sweep row's table, one row per x value and one column per series,
    and the sweep it was folded from."""

    x_label: str
    x: Sequence
    series: Dict[str, List]
    report: SweepReport

    def render(self) -> str:
        return format_table(
            [self.x_label, *self.series],
            [
                [_cell(x, 2)]
                + [_cell(values[index], 3) for values in self.series.values()]
                for index, x in enumerate(self.x)
            ],
        )


@dataclass(frozen=True)
class SweepFigure:
    """A figure that is one config swept over a grid (see the module doc)."""

    description: str
    config: str
    grid: Mapping[str, Sequence]
    x_label: str
    x: Sequence
    series: Callable[[SweepReport], Dict[str, List]]
    quick: Mapping[str, Any]
    seed_offset: int = 1
    keeps_scenario_seed: bool = False

    def run(self, quick: bool, seed: int) -> FigureResult:
        seeds = {"seed": seed + self.seed_offset}
        if not self.keeps_scenario_seed:
            seeds["scenario_seed"] = seed
        base = EXPERIMENT_CONFIGS[self.config].replace(
            **seeds, **(self.quick if quick else {})
        )
        report = Session().sweep(self.grid, base)
        return FigureResult(self.x_label, self.x, self.series(report), report)


@dataclass(frozen=True)
class RunnerFigure:
    """A figure whose entry is its own ``runner(quick=, seed=)``."""

    description: str
    runner: Callable[..., Any]
    config: Optional[str] = None

    def run(self, quick: bool, seed: int):
        return self.runner(quick=quick, seed=seed)


FIGURES: Dict[str, Union[SweepFigure, RunnerFigure]] = {
    "table1": RunnerFigure(
        "measured energy/error/latency comparison (Table 1)",
        run_table1,
        config="table1",
    ),
    "fig2": SweepFigure(
        "Count RMS vs Global(p) loss (Figure 2)",
        config="fig2",
        grid={
            "failure": [f"global:{rate}" for rate in FIG2_LOSS_RATES],
            "scheme": ["TAG", "SD", "TD"],
        },
        x_label="loss rate",
        x=FIG2_LOSS_RATES,
        series=SweepReport.rms_by_scheme,
        quick=LOSS_SWEEP_QUICK,
    ),
    "table2": RunnerFigure(
        "2-dominating tree example (Table 2)",
        lambda quick, seed: run_table2(),
    ),
    "fig4": RunnerFigure(
        "TD delta region under Regional(0.3/0.8, 0.05) (Figure 4)",
        run_figure4_panels,
        config="fig4",
    ),
    "fig5a": SweepFigure(
        "Sum RMS vs Global(p), all four schemes (Figure 5a)",
        config="fig5a",
        grid={
            "failure": [f"global:{rate}" for rate in FIG5_LOSS_RATES],
            "scheme": SCHEMES,
        },
        x_label="loss rate",
        x=FIG5_LOSS_RATES,
        series=SweepReport.rms_by_scheme,
        quick=LOSS_SWEEP_QUICK,
    ),
    "fig5b": SweepFigure(
        "Sum RMS vs Regional(p, 0.05) (Figure 5b)",
        config="fig5b",
        grid={
            "failure": [f"regional:{rate}:0.05" for rate in FIG5_LOSS_RATES],
            "scheme": SCHEMES,
        },
        x_label="loss rate",
        x=FIG5_LOSS_RATES,
        series=SweepReport.rms_by_scheme,
        quick=LOSS_SWEEP_QUICK,
    ),
    # No stabilisation: the timeline is about convergence dynamics.
    "fig6": SweepFigure(
        "relative-error timeline across failure transitions (Figure 6)",
        config="fig6",
        grid={"scheme": SCHEMES},
        x_label="phase",
        x=FIG6_PHASES,
        series=phase_means,
        quick={"num_sensors": 150},
        seed_offset=0,
    ),
    # The lab is a fixed floor plan: the seed moves the measurement draws.
    "labdata": SweepFigure(
        "Sum RMS on the LabData scenario (Section 7.3)",
        config="labdata",
        grid={"scheme": SCHEMES},
        x_label="scheme",
        x=SCHEMES,
        series=rms_and_delta_size,
        quick={"epochs": 30, "converge_epochs": 80},
        keeps_scenario_seed=True,
    ),
    "churn-timeline": RunnerFigure(
        "Figure-6-style timeline with node deaths and tree repair",
        run_churn_timeline,
        config="churn_timeline",
    ),
    "fig7a": RunnerFigure(
        "domination factor vs density (Figure 7a)", run_figure7a
    ),
    "fig7b": RunnerFigure(
        "domination factor vs deployment width (Figure 7b)", run_figure7b
    ),
    "fig8": RunnerFigure("frequent-items per-node loads (Figure 8)", run_figure8),
    "fig9a": RunnerFigure(
        "frequent-items false negatives vs loss (Figure 9a)",
        functools.partial(run_figure9, retransmissions=0),
    ),
    "fig9b": RunnerFigure(
        "Figure 9a with two tree retransmissions (Figure 9b)",
        functools.partial(run_figure9, retransmissions=2),
    ),
    "latency": RunnerFigure(
        "Table 1 latency column + footnote 6, quantified",
        run_latency,
        config="table1",
    ),
    "lifetime": RunnerFigure(
        "battery lifetimes per scheme (the paper's energy premise)",
        run_lifetime,
        config="lifetime",
    ),
    "sweep-threshold": SweepFigure(
        "contributing-threshold sweep (Section 4.1 dial)",
        config="sweep_td",
        grid={"threshold": THRESHOLDS},
        x_label="threshold",
        x=THRESHOLDS,
        series=rms_and_delta_fraction,
        quick={"num_sensors": 100, "epochs": 30, "converge_epochs": 60},
        seed_offset=0,
    ),
    "sweep-interval": RunnerFigure(
        "adaptation-cadence sweep (Figure 6 convergence knob)",
        sweep_adapt_interval,
        config="sweep_td",
    ),
    "sweep-heuristic": RunnerFigure(
        "expansion heuristics: top-1 / max-2 / top-k (Section 4.2)",
        sweep_expansion_heuristic,
        config="sweep_heuristic",
    ),
    "sweep-split": RunnerFigure(
        "frequent-items error split eps_a vs eps_b (Section 6.3)",
        sweep_epsilon_split,
    ),
}
