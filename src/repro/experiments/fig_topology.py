"""Figure 4: how TD's delta region tracks a regional failure.

Converges the ``fig4`` config — the TD (fine) strategy under
Regional(p1, 0.05) with the failure rectangle {(0,0),(10,10)} — and
reports where the delta region sits.
The paper's observation: "the delta region mostly consists of nodes actually
experiencing high loss rate" — quantified here as the in-region fraction of
delta nodes versus the in-region fraction of all nodes, plus an ASCII map
like the paper's scatter plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.api import EXPERIMENT_CONFIGS, build_scenario
from repro.network.failures import RegionalLoss
from repro.network.placement import Deployment, NodeId
from repro.registry import build_aggregate

#: The figure's two panels: a mild and a severe regional failure.
PANEL_RATES = (0.3, 0.8)

#: ``strategy`` values of :func:`run_figure4` -> registered scheme names.
STRATEGY_SCHEMES = {"td": "TD", "td-coarse": "TD-Coarse"}


@dataclass
class TopologyResult:
    """The converged delta region under one regional failure setting."""

    inside_rate: float
    deployment: Deployment
    delta: Set[NodeId]
    failure: RegionalLoss

    @property
    def delta_inside(self) -> int:
        return sum(
            1
            for node in self.delta
            if self.failure.contains(self.deployment, node)
        )

    @property
    def nodes_inside(self) -> int:
        return sum(
            1
            for node in self.deployment.sensor_ids
            if self.failure.contains(self.deployment, node)
        )

    @property
    def concentration(self) -> float:
        """In-region share of the delta over the in-region share of nodes.

        > 1 means the delta leans into the failure region (the paper's
        qualitative claim for the TD strategy).
        """
        if not self.delta:
            return 0.0
        delta_share = self.delta_inside / len(self.delta)
        node_share = self.nodes_inside / max(1, self.deployment.num_sensors)
        if node_share == 0:
            return 0.0
        return delta_share / node_share

    def render_map(self, columns: int = 40, rows: int = 20) -> str:
        """ASCII scatter of the deployment: '#' delta, '.' tree, 'B' base."""
        grid = [[" " for _ in range(columns)] for _ in range(rows)]
        for node in self.deployment.node_ids:
            x, y = self.deployment.position(node)
            column = min(columns - 1, int(x / self.deployment.width * columns))
            row = min(rows - 1, int(y / self.deployment.height * rows))
            row = rows - 1 - row  # y grows upward in the paper's plots
            if node == self.deployment.base_station:
                grid[row][column] = "B"
            elif node in self.delta:
                grid[row][column] = "#"
            elif grid[row][column] == " ":
                grid[row][column] = "."
        return "\n".join("".join(line) for line in grid)

    def render(self) -> str:
        return (
            f"Regional({self.inside_rate},{self.failure.outside_rate}): "
            f"delta={len(self.delta)} "
            f"inside={self.delta_inside}/{self.nodes_inside} "
            f"concentration={self.concentration:.2f}\n" + self.render_map()
        )


@dataclass
class Figure4Result:
    """Both panels of Figure 4, mild failure first."""

    panels: List[TopologyResult]

    def render(self) -> str:
        return "\n\n".join(panel.render() for panel in self.panels)


def run_figure4(
    inside_rate: float,
    outside_rate: float = 0.05,
    quick: bool = False,
    seed: int = 0,
    threshold: Optional[float] = None,
    converge_epochs: Optional[int] = None,
    strategy: str = "td",
) -> TopologyResult:
    """Converge a Tributary-Delta scheme under Regional(inside_rate, ...).

    ``strategy`` selects the paper's two adaptation designs: ``"td"`` (the
    fine-grained strategy whose delta grows toward the failure) or
    ``"td-coarse"`` (whole switchable levels at a time — Section 7.2 notes
    that it switches "all nodes near the base station ... even those
    experiencing small message loss", which this experiment quantifies via
    the concentration metric).

    ``threshold`` and ``converge_epochs`` default to the ``fig4`` config's
    (85%, 200 epochs; 80 epochs over 150 nodes when ``quick``).
    """
    sizes = dict(num_sensors=150, converge_epochs=80) if quick else {}
    if threshold is not None:
        sizes["threshold"] = threshold
    if converge_epochs is not None:
        sizes["converge_epochs"] = converge_epochs
    config = EXPERIMENT_CONFIGS["fig4"].replace(
        scheme=STRATEGY_SCHEMES.get(strategy, strategy),
        failure=f"regional:{inside_rate}:{outside_rate}",
        scenario_seed=seed,
        **sizes,
    )
    scenario = build_scenario(config)
    scheme = scenario.build_scheme(build_aggregate(config.aggregate))
    scenario.converge(scheme, scenario.source)
    return TopologyResult(
        inside_rate=inside_rate,
        deployment=scenario.topology.deployment,
        delta=scheme.graph.delta_region(),
        failure=scenario.failure,
    )


def run_figure4_panels(quick: bool = False, seed: int = 0) -> Figure4Result:
    """Figure 4 as printed: the TD delta under both regional failures."""
    return Figure4Result(
        [
            run_figure4(inside_rate=rate, quick=quick, seed=seed)
            for rate in PANEL_RATES
        ]
    )
