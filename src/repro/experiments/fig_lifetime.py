"""Network lifetime under each aggregation approach (the paper's premise).

"Because the battery drain for sending a message between two neighboring
sensors exceeds by several orders of magnitude the drain for local
operations ... minimizing sensor communication is a primary means for
conserving battery power." All three approaches send one transmission per
node per epoch for simple aggregates, so their *message counts* tie — what
separates their lifetimes is message *size* (Table 1's second energy
column): tree partials are 1-2 words, multi-path synopses several, with
Tributary-Delta in between (small tributary payloads, sketch-sized delta
payloads).

Measured behaviour (quick configuration): TAG outlives SD network-wide
(1-2 word partials vs sketch payloads). Tributary-Delta splits the
difference *unevenly*: its median mote lives a tree node's life (the
tributaries), but its **first** death beats even SD's — the delta-boundary
nodes pay for the synopsis *and* the adaptation piggybacks
(contributing-count sketch + missing statistics). Energy, like error, is
concentrated exactly where the robustness is bought; rotating the delta
boundary would be the natural countermeasure (future work the paper's
framework makes easy to express).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.api import EXPERIMENT_CONFIGS, RunConfig, Session, build_scenario
from repro.network.lifetime import LifetimeReport, lifetime_from_run
from repro.plotting import format_table


@dataclass
class LifetimeComparison:
    """First-death / half-dead epochs per scheme."""

    config: RunConfig
    reports: Dict[str, LifetimeReport] = field(default_factory=dict)
    battery_j: float = 20.0

    def render(self) -> str:
        rows = []
        for name, report in self.reports.items():
            rows.append(
                [
                    name,
                    f"{report.first_death_epochs:,.0f}",
                    f"{report.epochs_to_fraction_dead(0.5):,.0f}",
                    f"{report.hotspots(1)[0][0]}",
                ]
            )
        body = format_table(
            ["scheme", "first death (epochs)", "half dead", "hotspot node"],
            rows,
        )
        return (
            f"battery {self.battery_j:.0f} J/mote, {self.config.aggregate} "
            f"query, {self.config.failure} loss\n" + body
        )


def run_lifetime(
    quick: bool = False, seed: int = 0, battery_j: float = 20.0
) -> LifetimeComparison:
    """Compare battery lifetimes across TAG / SD / TD on a Count query."""
    base = EXPERIMENT_CONFIGS["lifetime"].replace(
        scenario_seed=seed,
        seed=seed + 1,
        **(dict(num_sensors=120, epochs=20) if quick else {}),
    )
    report = Session().sweep({"scheme": ["TAG", "SD"]}, base)
    runs = {config.scheme: run for config, run in report.rows()}
    # TD is not stabilised here: its delta is placed by hand — ring 1 joins
    # the base station — so the scheme is built and driven directly.
    scenario = build_scenario(base)
    scheme, readings = scenario.bind()
    scheme.graph.expand_all()
    runs["TD"] = scenario.build_simulator(scheme).run(
        base.epochs, readings, start_epoch=base.start_epoch
    )
    return LifetimeComparison(
        config=base,
        reports={
            name: lifetime_from_run(run, base.epochs, battery_j=battery_j)
            for name, run in runs.items()
        },
        battery_j=battery_j,
    )
