"""Precision-gradient quantiles over trees (the §6.1.4 extension).

"The quantiles algorithm by Greenwald and Khanna can be extended to use our
precision gradients and hence to achieve useful bounds ... the first
quantiles algorithms that achieve these bounds."

The construction mirrors Min Total-load: a node of height k prunes its
merged summary to budget B_k = ceil(1 / (eps(k) - eps(k-1))), so each prune
adds at most (eps(k) - eps(k-1)) / 2 rank error; telescoping along any
root path bounds the end-to-end error by eps(h)/2 <= eps/2, while the
counter/total-load analysis of Lemma 3 transfers verbatim — total
communication O(m/eps) on d-dominating trees.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.frequent.gk import GKSummary
from repro.frequent.gradients import MinTotalLoadGradient, PrecisionGradient
from repro.frequent.passes import TreeRunner
from repro.network.placement import NodeId
from repro.tree.domination import domination_factor
from repro.tree.structure import Tree


def gk_step(
    items: Sequence[int], children: Sequence[GKSummary], budget: int
) -> GKSummary:
    """A GK node: its own values merged with its children's summaries in
    arrival order, pruned to ``budget``."""
    summary = GKSummary.from_values(float(item) for item in items)
    for received in children:
        summary = summary.merge(received)
    return summary.prune(budget)


def merge_received(received: Sequence[GKSummary]) -> GKSummary:
    """The base station's summary: what arrived, merged in arrival order."""
    return reduce(GKSummary.merge, received)


class TreeQuantiles(TreeRunner):
    """Quantile aggregation with a precision gradient."""

    def __init__(
        self,
        tree: Tree,
        gradient: PrecisionGradient,
        attempts: int = 1,
        name: str = "tree-quantiles",
    ) -> None:
        super().__init__(tree, attempts)
        self._gradient = gradient
        self.name = name
        self._heights = tree.heights()
        gradient.validate(max(self._heights.values()))

    @classmethod
    def min_total_load(
        cls, tree: Tree, epsilon: float, attempts: int = 1
    ) -> "TreeQuantiles":
        """The O(m/eps)-total-communication quantiles algorithm."""
        d = domination_factor(tree)
        return cls(
            tree,
            MinTotalLoadGradient(epsilon, d),
            attempts,
            name="Quantiles Min Total-load",
        )

    def step(
        self, node: NodeId, items: Sequence[int], children: List[GKSummary]
    ) -> GKSummary:
        """GK merge, then prune to ``B_k``: the gradient's counter cap at
        the node's height."""
        budget = self._gradient.max_counters(self._heights[node])
        if budget == math.inf:
            raise ConfigurationError("gradient grants no slack at this height")
        return gk_step(items, children, max(2, math.ceil(budget)))

    _root = staticmethod(merge_received)

    def quantiles(self, root: GKSummary, phis: List[float]) -> List[float]:
        """Read the requested quantiles off the root summary."""
        return [root.query_quantile(phi) for phi in phis]
