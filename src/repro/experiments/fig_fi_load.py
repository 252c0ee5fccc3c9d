"""Figure 8: per-node communication load of the frequent-items algorithms.

Average and maximum per-node load (words = items + counters transmitted),
under no message loss, for Min Max-load [13], Min Total-load (§6.1.2),
Hybrid (§6.1.4) and the Quantiles-based baseline [8], on two datasets:

* a LabData-style stream (spatially correlated quantized light levels over
  the 54-node lab deployment, bushy tree);
* the paper's synthetic stream: per-node disjoint, uniform items — the
  worst case where every summary prunes down to its gradient cap.

Reproduction targets: Quantiles-based worst by a wide margin on the bushy
lab tree; Min Total-load ~ Min Max-load on the lab data; on the disjoint
stream Min Total-load's *total* (= average) communication roughly half of
Min Max-load's; Hybrid at or below the best of both on max load.

Epsilon is calibrated so that eps * N exceeds typical summary sizes —
with the paper's 2.3M-reading stream eps = 0.1% prunes heavily; our
default streams are smaller, so the default eps here is scaled to keep
the pruning regime comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.datasets.labdata import LabDataScenario
from repro.datasets.streams import DisjointUniformItemStream
from repro.datasets.synthetic import make_synthetic_scenario
from repro.frequent.quantiles_fi import QuantilesBasedFrequentItems
from repro.frequent.tree_fi import TreeFrequentItems
from repro.plotting import format_table
from repro.tree.construction import build_bushy_tree
from repro.tree.structure import Tree

ALGORITHMS = ("Min Max-load", "Min Total-load", "Hybrid", "Quantiles-based")


@dataclass
class LoadResult:
    """Average/max per-node loads per algorithm and dataset."""

    rows: List[Tuple[str, str, float, int]] = field(default_factory=list)
    # (dataset, algorithm, average load, max load)

    def render(self) -> str:
        headers = ["dataset", "algorithm", "avg load (words)", "max load (words)"]
        rows = [
            [dataset, algorithm, f"{average:.0f}", str(maximum)]
            for dataset, algorithm, average, maximum in self.rows
        ]
        return format_table(headers, rows)

    def loads(self, dataset: str, algorithm: str) -> Tuple[float, int]:
        for row in self.rows:
            if row[0] == dataset and row[1] == algorithm:
                return row[2], row[3]
        raise KeyError((dataset, algorithm))


def _measure(
    tree: Tree,
    items_fn: Callable[[int, int], Sequence[int]],
    epsilon: float,
    dataset: str,
    result: LoadResult,
) -> None:
    engines = {
        "Min Max-load": TreeFrequentItems.min_max_load(tree, epsilon),
        "Min Total-load": TreeFrequentItems.min_total_load(tree, epsilon),
        "Hybrid": TreeFrequentItems.hybrid(tree, epsilon),
    }
    for name in ("Min Max-load", "Min Total-load", "Hybrid"):
        _, report = engines[name].aggregate(items_fn)
        result.rows.append(
            (dataset, name, report.average_load, report.max_load)
        )
    quantiles = QuantilesBasedFrequentItems(tree, epsilon)
    _, report = quantiles.aggregate(items_fn)
    result.rows.append(
        (dataset, "Quantiles-based", report.average_load, report.max_load)
    )


def run_figure8(
    quick: bool = False,
    seed: int = 0,
    epsilon: float = 0.05,
    lab_items_per_node: int = 400,
    synthetic_sensors: int = 100,
) -> LoadResult:
    """Measure Figure 8's four bars on both datasets."""
    if quick:
        lab_items_per_node = 150
        synthetic_sensors = 60
    result = LoadResult()

    lab = LabDataScenario.build(items_per_node=lab_items_per_node)
    lab_tree = build_bushy_tree(lab.rings, seed=seed)
    # A finer quantization than the accuracy experiments: more distinct
    # levels makes pruning (and hence the gradients) do real work.
    lab.item_stream.bucket = 5
    _measure(
        lab_tree,
        lambda node, epoch: lab.item_stream.items(node, epoch),
        epsilon,
        "LabData",
        result,
    )

    scenario = make_synthetic_scenario(num_sensors=synthetic_sensors, seed=seed)
    synthetic_tree = build_bushy_tree(scenario.rings, seed=seed)
    stream = DisjointUniformItemStream(
        items_per_node=lab_items_per_node, values_per_node=lab_items_per_node // 2,
        seed=seed,
    )
    _measure(
        synthetic_tree,
        lambda node, epoch: stream.items(node, epoch),
        epsilon,
        "Synthetic",
        result,
    )
    return result
