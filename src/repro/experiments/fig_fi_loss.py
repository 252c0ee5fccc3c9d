"""Figure 9: frequent-items false negatives under message loss.

False-negative percentage of the reported frequent items versus Global(p),
for TAG (Min Total-load over the tree), SD (the §6.2 multi-path algorithm)
and TD (§6.3), on the LabData-style item workload with s = 1%, eps = 0.1%.
Figure 9(b) repeats the sweep with tree nodes retransmitting twice
(attempts = 3), the paper's energy-equalising variant.

Reproduction targets: TAG's false negatives climb steeply with p; SD stays
much flatter; TD tracks the best of the two. With retransmissions TAG
improves markedly but multi-path still wins at p > ~0.5. False positives
stay small (< a few %) without loss.

TD's delta region is converged beforehand with a Count query at each loss
rate — the paper's adaptation design is query-agnostic ("the resulting
delta region is effective for a variety of concurrently running queries").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.aggregates.count import CountAggregate
from repro.core.adaptation import TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.labdata import LabDataScenario
from repro.datasets.streams import ConstantReadings, exact_item_counts
from repro.experiments.metrics import mean, percent
from repro.frequent.mp_fi import FMOperator, KMVOperator, MultipathFrequentItems
from repro.frequent.reporting import (
    false_negative_rate,
    false_positive_rate,
    report_frequent,
    true_frequent,
)
from repro.frequent.td_fi import (
    MultipathFrequentItemsScheme,
    TributaryDeltaFrequentItems,
)
from repro.frequent.tree_fi import TreeFrequentItems
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.network.simulator import EpochSimulator
from repro.plotting import format_table
from repro.tree.construction import build_bushy_tree

FIG9_LOSS_RATES = (0.0, 0.2, 0.4, 0.6, 0.8)


@dataclass
class FILossResult:
    """False-negative (and positive) percentages per scheme and loss rate."""

    loss_rates: Sequence[float]
    false_negatives: Dict[str, List[float]] = field(default_factory=dict)
    false_positives: Dict[str, List[float]] = field(default_factory=dict)
    retransmissions: int = 0

    def render(self) -> str:
        headers = ["loss rate"] + [f"{name} FN%" for name in self.false_negatives]
        rows = []
        for index, rate in enumerate(self.loss_rates):
            rows.append(
                [f"{rate:.1f}"]
                + [
                    f"{self.false_negatives[name][index]:.0f}"
                    for name in self.false_negatives
                ]
            )
        return format_table(headers, rows)


def _converged_graph(lab, tree, failure, threshold=0.85, epochs=80, seed=0):
    """Converge a TD graph for one loss rate using a Count query."""
    graph = TDGraph(lab.rings, tree, initial_modes_by_level(lab.rings, 0))
    scheme = TributaryDeltaScheme(
        lab.deployment,
        graph,
        CountAggregate(),
        policy=TDFinePolicy(threshold=threshold),
    )
    simulator = EpochSimulator(
        lab.deployment, failure, scheme, seed=seed, adapt_interval=1
    )
    simulator.run(0, ConstantReadings(1.0), warmup=epochs)
    return graph


def run_figure9(
    retransmissions: int = 0,
    quick: bool = False,
    seed: int = 0,
    support: float = 0.01,
    epsilon: float = 0.001,
    loss_rates: Sequence[float] = FIG9_LOSS_RATES,
    epochs_per_rate: int = 10,
    operator: Optional[object] = None,
) -> FILossResult:
    """The Figure 9 sweep; ``retransmissions=2`` gives Figure 9(b)."""
    if quick:
        epochs_per_rate = 4
    attempts = 1 + retransmissions
    lab = LabDataScenario.build()
    tree = build_bushy_tree(lab.rings, seed=seed)
    items_fn = lambda node, epoch: lab.item_stream.items(node, epoch)
    sensor_ids = lab.deployment.sensor_ids
    # The paper continues using the best-effort operator of [7] here.
    operator = operator or FMOperator(num_bitmaps=8)

    result = FILossResult(
        loss_rates=list(loss_rates), retransmissions=retransmissions
    )
    for name in ("TAG", "SD", "TD"):
        result.false_negatives[name] = []
        result.false_positives[name] = []

    for rate in loss_rates:
        # The x axis is the total loss rate: Global(p) replaces (rather than
        # stacks on) the lab's baseline link loss, so p=0 is genuinely
        # loss-free as in the paper's Figure 9.
        failure = GlobalLoss(rate)
        graph = _converged_graph(lab, tree, failure, seed=seed)
        per_scheme_fn = {name: [] for name in ("TAG", "SD", "TD")}
        per_scheme_fp = {name: [] for name in ("TAG", "SD", "TD")}
        for epoch in range(epochs_per_rate):
            truth_counts = exact_item_counts(lab.item_stream, sensor_ids, epoch)
            truth = true_frequent(truth_counts, support)
            total_items = sum(truth_counts.values())

            tag_engine = TreeFrequentItems.min_total_load(
                tree, epsilon, attempts=attempts
            )
            channel = Channel(lab.deployment, failure, seed=seed + 7)
            root, _ = tag_engine.aggregate(items_fn, epoch, channel=channel)
            reported = report_frequent(root, support, epsilon) if root else []
            per_scheme_fn["TAG"].append(false_negative_rate(truth, reported))
            per_scheme_fp["TAG"].append(false_positive_rate(truth, reported))

            algorithm = MultipathFrequentItems(
                epsilon=epsilon, total_items_hint=total_items, operator=operator
            )
            sd_scheme = MultipathFrequentItemsScheme(
                lab.rings, algorithm, support=support
            )
            channel = Channel(lab.deployment, failure, seed=seed + 7)
            outcome = sd_scheme.run_epoch(epoch, channel, items_fn)
            per_scheme_fn["SD"].append(false_negative_rate(truth, outcome.reported))
            per_scheme_fp["SD"].append(false_positive_rate(truth, outcome.reported))

            td_scheme = TributaryDeltaFrequentItems(
                graph,
                epsilon=epsilon,
                support=support,
                total_items_hint=total_items,
                operator=operator,
                tree_attempts=attempts,
            )
            channel = Channel(lab.deployment, failure, seed=seed + 7)
            outcome = td_scheme.run_epoch(epoch, channel, items_fn)
            per_scheme_fn["TD"].append(false_negative_rate(truth, outcome.reported))
            per_scheme_fp["TD"].append(false_positive_rate(truth, outcome.reported))

        for name in ("TAG", "SD", "TD"):
            result.false_negatives[name].append(percent(mean(per_scheme_fn[name])))
            result.false_positives[name].append(percent(mean(per_scheme_fp[name])))
    return result
