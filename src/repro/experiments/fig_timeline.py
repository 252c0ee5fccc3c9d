"""Figure 6: relative-error timeline across failure transitions.

The schedule: Global(0) until t=100, Regional(0.3, 0) until t=200,
Global(0.3) until t=300, then Global(0) again until t=400. Adaptation runs
every 10 epochs *during* measurement — this experiment is about convergence
dynamics, so there is no pre-stabilisation.

Reproduction targets: TAG accurate in the quiet phases and terrible in the
lossy ones; SD the reverse; TD-Coarse reacts fast but oscillates around the
optimum; TD converges slower (tens of epochs) but to a better operating
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.api import EXPERIMENT_CONFIGS, Session
from repro.experiments.metrics import mean
from repro.plotting import format_table
from repro.registry import SCHEMES


@dataclass
class TimelineResult:
    """Per-epoch relative errors for each scheme plus phase averages."""

    epochs: List[int]
    relative_errors: Dict[str, List[float]] = field(default_factory=dict)
    delta_sizes: Dict[str, List[int]] = field(default_factory=dict)

    def phase_means(
        self, boundaries: Sequence[int] | None = None
    ) -> Dict[str, List[float]]:
        """Mean relative error per schedule phase, per scheme.

        The default boundaries are the quarters of the recorded range (the
        schedule's four phases are equally long).
        """
        if boundaries is None:
            total = len(self.epochs)
            boundaries = (0, total // 4, total // 2, 3 * total // 4, total)
        output: Dict[str, List[float]] = {}
        for name, series in self.relative_errors.items():
            phases: List[float] = []
            for start, end in zip(boundaries, boundaries[1:]):
                window = [
                    error
                    for epoch, error in zip(self.epochs, series)
                    if start <= epoch < end
                ]
                phases.append(mean(window))
            output[name] = phases
        return output

    def render(self) -> str:
        phases = self.phase_means()
        headers = ["scheme", "quiet", "regional(0.3,0)", "global(0.3)", "quiet again"]
        rows = [
            [name] + [f"{value:.3f}" for value in values]
            for name, values in phases.items()
        ]
        return format_table(headers, rows)


def run_figure6(
    quick: bool = False,
    seed: int = 0,
    adapt_interval: int = 10,
) -> TimelineResult:
    """Run the 400-epoch timeline for TAG, SD, TD-Coarse and TD.

    The schedule is the ``timeline`` failure model of the named config;
    ``quick`` shrinks the deployment and keeps all four 100-epoch phases.
    """
    base = EXPERIMENT_CONFIGS["fig6"].replace(
        scenario_seed=seed,
        seed=seed,
        adapt_interval=adapt_interval,
        **({"num_sensors": 150} if quick else {}),
    )
    report = Session().sweep({"scheme": SCHEMES.available()}, base)
    result = TimelineResult(epochs=list(range(base.epochs)))
    for config, run in report.rows():
        result.relative_errors[config.scheme] = run.relative_errors
        result.delta_sizes[config.scheme] = [
            int(epoch.extra.get("delta_size", 0)) for epoch in run.epochs
        ]
    return result
