"""The Quantiles-based frequent-items baseline (the paper's [8]).

Frequent items can be read off an epsilon-approximate quantile summary: an
item with frequency f occupies an f/N-wide band of the rank space, so its
frequency estimate ``rank(u) - rank(u-)`` is within 2*eps*N. This is the
"Quantiles-based" competitor of Figure 8.

The baseline follows the Greenwald-Khanna sensor-network construction: every
node merges its children's summaries with its own exact summary and prunes
to a uniform budget B = ceil(h / eps) (h = tree height), which grants each of
the <= h prune steps along any root path an eps/(2h) rank-error share and
keeps the end-to-end error within eps/2 <= eps. The budget — and therefore
the per-node load — scales with the tree height and 1/eps but is oblivious
to the tree's shape, which is exactly why it loses badly on bushy trees
(the paper: "not optimized for the bushy tree we encounter in LabData").
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.frequent.gk import GKSummary
from repro.frequent.passes import TreeRunner
from repro.frequent.tree_quantiles import gk_step, merge_received
from repro.network.placement import NodeId
from repro.tree.structure import Tree


class QuantilesBasedFrequentItems(TreeRunner):
    """Frequent items via uniform-budget quantile summaries [8]."""

    name = "Quantiles-based"

    def __init__(self, tree: Tree, epsilon: float, attempts: int = 1) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError("epsilon must be in (0, 1)")
        super().__init__(tree, attempts)
        self.epsilon = epsilon
        #: Uniform prune budget: each prune adds <= eps/(2h) rank error.
        self.budget = max(2, math.ceil(tree.height / epsilon))

    def step(
        self, node: NodeId, items: Sequence[int], children: List[GKSummary]
    ) -> GKSummary:
        """GK merge, then prune to the uniform budget."""
        return gk_step(items, children, self.budget)

    _root = staticmethod(merge_received)

    def frequent_items(
        self, root: GKSummary, support: float
    ) -> List[int]:
        """Items whose estimated frequency exceeds (support - eps) * N."""
        threshold = (support - self.epsilon) * root.n
        reported = []
        for value in root.candidate_values():
            if root.frequency_estimate(value) > threshold:
                reported.append(int(value))
        return sorted(reported)
