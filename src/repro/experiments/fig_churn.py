"""Churn timeline: a Figure-6-style run where *nodes* fail, not links.

The paper's Figure 6 perturbs link loss over time while the membership
stays fixed. This experiment is its dynamic-topology twin: under a mild
``Global(0.1)`` loss, every node in the {(0,0),(10,10)} quadrant dies at
one quarter of the run and rejoins at three quarters (a regional power
cut). Between those boundaries the network runs on the survivors: rings
are recomputed, orphaned subtrees reattach through tree repair, and the
Tributary-Delta schemes re-adapt their delta over the repaired topology.

Reproduction targets: every scheme's truth follows the live population
down and back up (the error stays bounded through both transitions —
nothing aggregates ghosts); TAG pays a visible error spike right after
each membership change (one repaired tree, still single-path), while the
multi-path delta absorbs it; tree repair reattaches every orphaned live
node at both boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.api import EXPERIMENT_CONFIGS, build_scenario
from repro.experiments.metrics import mean
from repro.plotting import format_table
from repro.registry import SCHEMES, build_aggregate, build_churn_model

#: The quick run: a quarter of the timeline over a quarter of the nodes.
QUICK_SIZES = dict(
    num_sensors=150, epochs=100, churn="blackout:25:0:0:10:10:75"
)


@dataclass
class ChurnTimelineResult:
    """Per-scheme error series plus membership diagnostics."""

    epochs: List[int]
    #: Epochs at which the blackout hits and lifts.
    blackout_epoch: int
    rejoin_epoch: int
    relative_errors: Dict[str, List[float]] = field(default_factory=dict)
    alive_series: Dict[str, List[int]] = field(default_factory=dict)
    #: scheme -> total nodes reattached by tree repair across the run.
    reattached: Dict[str, int] = field(default_factory=dict)
    #: scheme -> number of applied membership updates.
    updates: Dict[str, int] = field(default_factory=dict)

    def phase_means(self) -> Dict[str, List[float]]:
        """Mean relative error in the healthy / dark / recovered phases."""
        output: Dict[str, List[float]] = {}
        boundaries = (
            self.epochs[0],
            self.blackout_epoch,
            self.rejoin_epoch,
            self.epochs[-1] + 1,
        )
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
        headers = [
            "scheme",
            "healthy",
            "blackout",
            "recovered",
            "min alive",
            "reattached",
        ]
        rows = []
        for name, values in phases.items():
            rows.append(
                [name]
                + [f"{value:.3f}" for value in values]
                + [
                    str(min(self.alive_series[name])),
                    str(self.reattached[name]),
                ]
            )
        return format_table(headers, rows)


def run_churn_timeline(
    quick: bool = False,
    seed: int = 0,
    adapt_interval: int = 10,
) -> ChurnTimelineResult:
    """Run the blackout/rejoin timeline for TAG, SD, TD-Coarse and TD."""
    base = EXPERIMENT_CONFIGS["churn_timeline"].replace(
        scenario_seed=seed,
        seed=seed,
        adapt_interval=adapt_interval,
        # Pinned so the non-adaptive schemes see the blackout at the same
        # boundaries as the adaptive ones, whatever the cadence.
        churn_interval=adapt_interval,
        **(QUICK_SIZES if quick else {}),
    )
    blackout = build_churn_model(base.churn)
    result = ChurnTimelineResult(
        epochs=list(range(base.epochs)),
        blackout_epoch=blackout.epoch,
        rejoin_epoch=blackout.rejoin_epoch,
    )
    for name in SCHEMES.available():
        # The repair diagnostics live on the run's membership runtime, not
        # in its record, so drive the scenario's own simulator.
        scenario = build_scenario(base.replace(scheme=name))
        scheme = scenario.build_scheme(build_aggregate(base.aggregate))
        scenario.converge(scheme, scenario.source)
        simulator = scenario.build_simulator(scheme)
        run = simulator.run(
            base.epochs, scenario.source, start_epoch=base.start_epoch
        )
        updates = simulator.membership.updates
        result.relative_errors[name] = run.relative_errors
        result.alive_series[name] = [
            int(epoch.extra["alive_sensors"]) for epoch in run.epochs
        ]
        result.reattached[name] = sum(
            update.repair.num_reattached for update in updates
        )
        result.updates[name] = len(updates)
    return result
