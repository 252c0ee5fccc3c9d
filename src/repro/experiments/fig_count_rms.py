"""Figures 2 and 5(a): RMS error vs Global(p) loss rate.

Figure 2 is the Count teaser over loss rates 0-0.4 (Tree vs Multi-path vs
Tributary-Delta); Figure 5(a) is the full study with Sum over 0-1 and all
four schemes. Both reduce to the same sweep; the aggregate and the loss
grid are parameters.

Expected shape (the reproduction target): TAG starts at zero error and
degrades steeply; SD starts at the ~12% synopsis approximation error and
stays nearly flat; TD-Coarse and TD stay at (or below) the minimum of the
two at every rate, with exact answers at p=0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.api import EXPERIMENT_CONFIGS, Session
from repro.plotting import format_table

#: Figure 2's x axis (Count teaser).
FIG2_LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)

#: Figure 5(a)'s x axis.
FIG5A_LOSS_RATES = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0)

SCHEMES = ("TAG", "SD", "TD-Coarse", "TD")

#: The quick size of every loss sweep (Figures 2, 5(a) and 5(b)).
QUICK_SIZES = dict(num_sensors=150, epochs=30, converge_epochs=60)


@dataclass
class LossSweepResult:
    """RMS-error series per scheme over a loss-rate grid.

    ``delta_sizes`` holds the delta size each run *recorded* at its last
    measured epoch (``extra["delta_size"]``; 0 for the non-adaptive
    schemes) — the size that epoch ran with, not the graph after whatever
    adaptation followed it.
    """

    loss_rates: Sequence[float]
    rms: Dict[str, List[float]] = field(default_factory=dict)
    delta_sizes: Dict[str, List[int]] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["loss rate"] + list(self.rms)
        rows = []
        for index, rate in enumerate(self.loss_rates):
            row = [f"{rate:.2f}"] + [
                f"{self.rms[name][index]:.3f}" for name in self.rms
            ]
            rows.append(row)
        return format_table(headers, rows)


def run_loss_sweep(
    name: str,
    loss_rates: Sequence[float],
    failures: Sequence[str],
    quick: bool = False,
    seed: int = 0,
    schemes: Sequence[str] = SCHEMES,
) -> LossSweepResult:
    """Sweep the named config over ``failures`` x ``schemes``.

    The shared body of Figures 2, 5(a) and 5(b): ``failures`` holds one
    failure spec per entry of ``loss_rates``. ``seed`` keys the deployment
    and stabilisation; measurement draws use ``seed + 1``, paired across
    schemes.
    """
    base = EXPERIMENT_CONFIGS[name].replace(
        scenario_seed=seed, seed=seed + 1, **(QUICK_SIZES if quick else {})
    )
    report = Session().sweep(
        {"failure": list(failures), "scheme": list(schemes)}, base
    )
    result = LossSweepResult(
        loss_rates=list(loss_rates), rms=report.rms_by_scheme()
    )
    for config, run in report.rows():
        result.delta_sizes.setdefault(config.scheme, []).append(
            int(run.epochs[-1].extra.get("delta_size", 0))
        )
    return result


def run_figure2(quick: bool = False, seed: int = 0) -> LossSweepResult:
    """Figure 2: Count under Global(p), p in 0-0.4."""
    return run_loss_sweep(
        "fig2",
        FIG2_LOSS_RATES,
        [f"global:{rate}" for rate in FIG2_LOSS_RATES],
        quick=quick,
        seed=seed,
        schemes=("TAG", "SD", "TD"),
    )


def run_figure5a(quick: bool = False, seed: int = 0) -> LossSweepResult:
    """Figure 5(a): Sum under Global(p), p in 0-1, all four schemes."""
    return run_loss_sweep(
        "fig5a",
        FIG5A_LOSS_RATES,
        [f"global:{rate}" for rate in FIG5A_LOSS_RATES],
        quick=quick,
        seed=seed,
    )
