"""Figure 5(b): RMS error under Regional(p, 0.05) failures.

Nodes inside the {(0,0),(10,10)} quadrant lose messages at rate p; everyone
else at 5%. The reproduction target: TD (fine-grained) clearly beats
TD-Coarse and both baselines at moderate p, because it runs multi-path only
inside the failure region while exact tree aggregation covers the rest.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.fig_count_rms import LossSweepResult, run_loss_sweep

#: Figure 5(b)'s x axis (the in-region loss rate).
FIG5B_LOSS_RATES = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0)


def run_figure5b(
    quick: bool = False,
    seed: int = 0,
    loss_rates: Sequence[float] = FIG5B_LOSS_RATES,
    outside_rate: float = 0.05,
) -> LossSweepResult:
    """Sweep the in-region loss rate with the paper's Regional model."""
    return run_loss_sweep(
        "fig5b",
        loss_rates,
        [f"regional:{rate}:{outside_rate}" for rate in loss_rates],
        quick=quick,
        seed=seed,
    )
