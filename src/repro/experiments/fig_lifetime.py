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
from typing import Dict, List, Tuple

from repro.aggregates.count import CountAggregate
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import ConstantReadings
from repro.datasets.synthetic import make_synthetic_scenario
from repro.network.failures import GlobalLoss
from repro.network.lifetime import LifetimeReport, lifetime_from_run
from repro.network.simulator import EpochSimulator
from repro.plotting import format_table
from repro.tree.construction import build_bushy_tree


@dataclass
class LifetimeComparison:
    """First-death / half-dead epochs per scheme."""

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
            f"battery {self.battery_j:.0f} J/mote, Count query, "
            "Global(0.1) loss\n" + body
        )


def run_lifetime(
    quick: bool = False, seed: int = 0, battery_j: float = 20.0
) -> LifetimeComparison:
    """Compare battery lifetimes across TAG / SD / TD on a Count query."""
    sensors = 120 if quick else 400
    epochs = 20 if quick else 60
    scenario = make_synthetic_scenario(num_sensors=sensors, seed=seed)
    tree = build_bushy_tree(scenario.rings, seed=seed)
    failure = GlobalLoss(0.1)
    readings = ConstantReadings(1.0)

    graph = TDGraph(
        scenario.rings, tree, initial_modes_by_level(scenario.rings, 1)
    )
    schemes = {
        "TAG": TagScheme(scenario.deployment, tree, CountAggregate()),
        "SD": SynopsisDiffusionScheme(
            scenario.deployment, scenario.rings, CountAggregate()
        ),
        "TD": TributaryDeltaScheme(scenario.deployment, graph, CountAggregate()),
    }
    comparison = LifetimeComparison(battery_j=battery_j)
    for name, scheme in schemes.items():
        simulator = EpochSimulator(
            scenario.deployment, failure, scheme, seed=seed + 1, adapt_interval=0
        )
        run = simulator.run(epochs, readings)
        comparison.reports[name] = lifetime_from_run(
            run, epochs, battery_j=battery_j
        )
    return comparison
