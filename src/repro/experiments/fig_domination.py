"""Figure 7 and Table 2: domination factors of constructed trees.

Figure 7(a): domination factor vs sensor density on a fixed 20x20 area;
Figure 7(b): vs deployment-area width at density 1. Both compare the
paper's tree construction ("Our Tree", §6.1.3) against the standard TAG
construction. Reproduction target: our construction dominates TAG's curve
everywhere, with the gap largest where d is low (sparse or narrow
deployments).

Table 2 is exact: the height profiles and H(i) of the example tree
Te = [37, 10, 6, 1] and the regular tree T2 = [8, 4, 2, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.datasets.synthetic import (
    density_sweep_deployment,
    width_sweep_deployment,
)
from repro.experiments.metrics import mean
from repro.network.rings import RingsTopology
from repro.plotting import format_table
from repro.tree.construction import build_bushy_tree, build_tag_tree
from repro.tree.domination import (
    domination_factor,
    height_profile,
    height_profile_fractions,
    tree_from_height_profile,
)

#: Figure 7(a)'s density grid.
FIG7A_DENSITIES = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)

#: Figure 7(b)'s width grid (height stays 20, density 1).
FIG7B_WIDTHS = (10, 20, 30, 40, 60, 80, 100)


@dataclass
class DominationSweepResult:
    """Domination factors along a parameter grid, per construction."""

    parameter_name: str
    parameters: Sequence[float]
    our_tree: List[float] = field(default_factory=list)
    tag_tree: List[float] = field(default_factory=list)

    def render(self) -> str:
        headers = [self.parameter_name, "Our Tree", "TAG Tree"]
        rows = [
            [f"{param:g}", f"{ours:.2f}", f"{tag:.2f}"]
            for param, ours, tag in zip(
                self.parameters, self.our_tree, self.tag_tree
            )
        ]
        return format_table(headers, rows)


def _domination_pair(
    deployment, radio, seeds: Sequence[int]
) -> Tuple[float, float]:
    """Mean domination factors (ours, TAG) over construction seeds."""
    connectivity = radio.connectivity(deployment)
    rings = RingsTopology.build(deployment, connectivity)
    ours = mean(
        [domination_factor(build_bushy_tree(rings, seed=seed)) for seed in seeds]
    )
    tag = mean(
        [domination_factor(build_tag_tree(rings, seed=seed)) for seed in seeds]
    )
    return ours, tag


def run_figure7a(
    quick: bool = False,
    seed: int = 0,
    densities: Sequence[float] = FIG7A_DENSITIES,
) -> DominationSweepResult:
    """Figure 7(a): effect of density."""
    seeds = [seed] if quick else [seed, seed + 1, seed + 2]
    grid = densities[::2] if quick and densities == FIG7A_DENSITIES else densities
    result = DominationSweepResult("density", list(grid))
    for density in grid:
        deployment, radio = density_sweep_deployment(density, seed=seed)
        ours, tag = _domination_pair(deployment, radio, seeds)
        result.our_tree.append(ours)
        result.tag_tree.append(tag)
    return result


def run_figure7b(
    quick: bool = False,
    seed: int = 0,
    widths: Sequence[float] = FIG7B_WIDTHS,
) -> DominationSweepResult:
    """Figure 7(b): effect of deployment-area width."""
    seeds = [seed] if quick else [seed, seed + 1, seed + 2]
    grid = widths[::2] if quick and widths == FIG7B_WIDTHS else widths
    result = DominationSweepResult("width", list(grid))
    for width in grid:
        deployment, radio = width_sweep_deployment(width, seed=seed)
        ours, tag = _domination_pair(deployment, radio, seeds)
        result.our_tree.append(ours)
        result.tag_tree.append(tag)
    return result


@dataclass
class Table2Result:
    """The paper's worked 2-dominating example, regenerated."""

    te_profile: List[int]
    te_fractions: List[float]
    te_domination: float
    t2_profile: List[int]
    t2_fractions: List[float]
    t2_domination: float

    def render(self) -> str:
        headers = ["tree", "h(1..4)", "H(1..4)", "domination factor"]
        rows = [
            [
                "Te",
                str(self.te_profile),
                "[" + ", ".join(f"{f:.4f}" for f in self.te_fractions) + "]",
                f"{self.te_domination:.2f}",
            ],
            [
                "T2",
                str(self.t2_profile),
                "[" + ", ".join(f"{f:.4f}" for f in self.t2_fractions) + "]",
                f"{self.t2_domination:.2f}",
            ],
        ]
        return format_table(headers, rows)


def run_table2() -> Table2Result:
    """Regenerate Table 2 from first principles."""
    te = tree_from_height_profile([37, 10, 6, 1])
    t2 = tree_from_height_profile([8, 4, 2, 1])
    te_profile = height_profile(te)
    t2_profile = height_profile(t2)
    return Table2Result(
        te_profile=te_profile,
        te_fractions=height_profile_fractions(te_profile),
        te_domination=domination_factor(te),
        t2_profile=t2_profile,
        t2_fractions=height_profile_fractions(t2_profile),
        t2_domination=domination_factor(t2),
    )
