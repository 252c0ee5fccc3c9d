"""The tree frequent-items engine (Min Total-load and friends, §6.1).

Runs Algorithm 1 bottom-up over a spanning tree (a
:class:`~repro.frequent.passes.TreeRunner`) with a pluggable precision
gradient, in two operating modes:

* **lossless** (``channel=None``) — used for the Figure 8 load study: every
  message arrives; the report captures per-node word loads (average and
  max), the quantities the paper plots.
* **lossy** — used for Figure 9: messages traverse a
  :class:`~repro.network.links.Channel` and a lost message drops the whole
  subtree's summary, exactly like TAG's Sum.

Gradient factories pick the paper's parameters from the tree itself:
``for_tree`` computes the domination factor for Min Total-load and the tree
height for Min Max-load.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.frequent.gradients import (
    FlatGradient,
    HybridGradient,
    MinMaxLoadGradient,
    MinTotalLoadGradient,
    PrecisionGradient,
)
from repro.frequent.passes import TreeRunner
from repro.frequent.summary import Summary, generate_summary
from repro.network.placement import BASE_STATION, NodeId
from repro.tree.domination import domination_factor
from repro.tree.structure import Tree


class TreeFrequentItems(TreeRunner):
    """Frequent items over a tree with a precision gradient."""

    def __init__(
        self,
        tree: Tree,
        gradient: PrecisionGradient,
        attempts: int = 1,
        name: str = "tree-fi",
    ) -> None:
        super().__init__(tree, attempts)
        self._gradient = gradient
        self.name = name
        self._heights = tree.heights()
        gradient.validate(max(self._heights.values()))

    @classmethod
    def min_total_load(
        cls, tree: Tree, epsilon: float, attempts: int = 1
    ) -> "TreeFrequentItems":
        """Min Total-load with d taken from the tree's domination factor."""
        d = domination_factor(tree)
        gradient = MinTotalLoadGradient(epsilon, d)
        return cls(tree, gradient, attempts, name="Min Total-load")

    @classmethod
    def min_max_load(
        cls, tree: Tree, epsilon: float, attempts: int = 1
    ) -> "TreeFrequentItems":
        """Min Max-load [13]: the linear gradient over the tree height."""
        gradient = MinMaxLoadGradient(epsilon, tree.height)
        return cls(tree, gradient, attempts, name="Min Max-load")

    @classmethod
    def hybrid(
        cls, tree: Tree, epsilon: float, attempts: int = 1
    ) -> "TreeFrequentItems":
        """Hybrid (§6.1.4): both objectives within 2x of optimal."""
        d = domination_factor(tree)
        gradient = HybridGradient(epsilon, d, tree.height)
        return cls(tree, gradient, attempts, name="Hybrid")

    @classmethod
    def flat(
        cls, tree: Tree, epsilon: float, attempts: int = 1
    ) -> "TreeFrequentItems":
        """Flat-gradient ablation baseline."""
        return cls(tree, FlatGradient(epsilon), attempts, name="Flat")

    @property
    def gradient(self) -> PrecisionGradient:
        return self._gradient

    def step(
        self, node: NodeId, items: Sequence[int], children: List[Summary]
    ) -> Summary:
        """Algorithm 1 at ``eps(height)``: own items plus children's summaries."""
        epsilon_k = self._gradient.epsilon_at(self._heights[node])
        return generate_summary(children, Summary.from_items(items), epsilon_k)

    def _root(self, received: List[Summary]) -> Summary:
        # The base station senses nothing; it runs the step at the root.
        return self.step(BASE_STATION, (), received)
