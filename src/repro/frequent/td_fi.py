"""Frequent items over multi-path and Tributary-Delta topologies (§6.2-6.3).

Two configurations of :func:`~repro.frequent.passes.td_pass` live here:

* :class:`MultipathFrequentItemsScheme` — the Section 6.2 algorithm over
  the rings topology, every node M (the paper's "SD" series in Figure 9);
* :class:`TributaryDeltaFrequentItems` — the Section 6.3 combination: T
  nodes run Algorithm 1 with the Min Total-load gradient at tolerance
  eps_a, M nodes run the class-based multi-path algorithm at tolerance
  eps_b, and the *conversion function* is the multi-path SG applied to a
  tree summary's estimated frequencies (with the summary's n as SG's n'),
  so the end-to-end error is at most eps_a + eps_b = eps.

Both expose ``run_epoch(epoch, channel, items_fn)`` returning an
:class:`FIOutcome`; the experiment harness compares reports against ground
truth for the false negative/positive rates of Figure 9. An M node's
payload is a per-class synopsis collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.graph import TDGraph
from repro.errors import ConfigurationError
from repro.frequent.gradients import MinTotalLoadGradient
from repro.frequent.mp_fi import FrequentItemsSynopsis, MultipathFrequentItems
from repro.frequent.passes import ItemsFn, td_pass
from repro.frequent.reporting import report_from_estimates
from repro.frequent.summary import Item, Summary
from repro.frequent.tree_fi import TreeFrequentItems
from repro.network.links import Channel
from repro.network.placement import BASE_STATION, NodeId
from repro.network.rings import RingsTopology
from repro.tree.domination import domination_factor

#: A per-class synopsis collection: what an M node broadcasts.
Collection = Dict[int, FrequentItemsSynopsis]


@dataclass
class FIOutcome:
    """One epoch's frequent-items result at the base station."""

    reported: List[Item]
    total_estimate: float
    estimates: Dict[Item, float] = field(default_factory=dict)


def _collection(synopsis: Optional[FrequentItemsSynopsis]) -> Optional[Collection]:
    return None if synopsis is None else {synopsis.klass: synopsis}


def _fuse(algo: MultipathFrequentItems, parts: Sequence[Collection]) -> Collection:
    """SF over the parts' synopses, in order."""
    return algo.fuse_into_classes(
        [synopsis for part in parts for synopsis in part.values()]
    )


class MultipathFrequentItemsScheme:
    """The Section 6.2 algorithm over rings (Figure 9's SD series)."""

    def __init__(
        self,
        rings: RingsTopology,
        algorithm: MultipathFrequentItems,
        support: float,
        attempts: int = 1,
        name: str = "SD",
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        self._rings = rings
        self._algorithm = algorithm
        self._support = support
        self._attempts = attempts
        self.name = name

    def run_epoch(
        self, epoch: int, channel: Channel, items_fn: ItemsFn
    ) -> FIOutcome:
        algo = self._algorithm
        _, received = td_pass(
            self._rings, lambda node: True, epoch, channel, items_fn,
            local=lambda *args: _collection(algo.generate(*args)),
            fuse=lambda parts: _fuse(algo, parts), words=algo.collection_words,
            multipath_attempts=self._attempts,
        )
        total, estimates = algo.evaluate(_fuse(algo, received))
        reported = report_from_estimates(
            estimates, total, self._support, algo.epsilon
        )
        return FIOutcome(reported=reported, total_estimate=total, estimates=estimates)


class TributaryDeltaFrequentItems:
    """The Section 6.3 combined algorithm over a Tributary-Delta graph."""

    def __init__(
        self,
        graph: TDGraph,
        epsilon: float,
        support: float,
        total_items_hint: int,
        tree_epsilon: Optional[float] = None,
        operator=None,
        eta: float = 1.5,
        tree_attempts: int = 1,
        multipath_attempts: int = 1,
        name: str = "TD",
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError("epsilon must be in (0, 1)")
        if tree_attempts < 1 or multipath_attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        self._graph = graph
        self.epsilon = epsilon
        #: Error split eps = eps_a (tree) + eps_b (multi-path), Section 6.3.
        self.epsilon_tree = tree_epsilon if tree_epsilon is not None else epsilon / 2.0
        self.epsilon_mp = epsilon - self.epsilon_tree
        if self.epsilon_mp <= 0:
            raise ConfigurationError("tree epsilon must leave budget for multi-path")
        self._support = support
        #: The tributaries' Algorithm 1 (Min Total-load at eps_a).
        self._tributary = TreeFrequentItems(
            graph.tree,
            MinTotalLoadGradient(self.epsilon_tree, domination_factor(graph.tree)),
            tree_attempts,
        )
        self._algorithm = MultipathFrequentItems(
            epsilon=self.epsilon_mp,
            total_items_hint=total_items_hint,
            eta=eta,
            operator=operator,
        )
        self._tree_attempts = tree_attempts
        self._multipath_attempts = multipath_attempts
        self.name = name

    @property
    def algorithm(self) -> MultipathFrequentItems:
        return self._algorithm

    # -- the conversion function (Section 6.3) ------------------------------

    def convert(
        self, summary: Summary, sender: NodeId, epoch: int
    ) -> Optional[FrequentItemsSynopsis]:
        """Multi-path SG applied to the tree summary's estimates.

        The summary's estimates c~(u) play the role of actual frequencies
        and its n the role of SG's n'. Keys include the sending T vertex so
        the conversion is deterministic.
        """
        if summary.n == 0:
            return None
        counts = {item: int(round(c)) for item, c in summary.counts.items()}
        return self._algorithm.synopsis(counts, summary.n, "fi-conv", sender, epoch)

    # -- one epoch -----------------------------------------------------------

    def run_epoch(
        self, epoch: int, channel: Channel, items_fn: ItemsFn
    ) -> FIOutcome:
        graph = self._graph
        algo = self._algorithm
        tree_payloads, received = td_pass(
            graph.rings, graph.is_multipath, epoch, channel, items_fn,
            local=lambda *args: _collection(algo.generate(*args)),
            fuse=lambda parts: _fuse(algo, parts), words=algo.collection_words,
            multipath_attempts=self._multipath_attempts, tree=graph.tree,
            tree_step=self._tributary.step, tree_attempts=self._tree_attempts,
            convert=lambda *args: _collection(self.convert(*args)),
        )
        summaries = [summary for _, summary in tree_payloads]
        if graph.is_tree(BASE_STATION):
            # All-tree configuration: Algorithm 1 at the root.
            root = self._tributary.step(BASE_STATION, (), summaries)
            total = float(root.n)
            estimates = {item: float(c) for item, c in root.counts.items()}
            slack = 1.0
        else:
            # Mixed evaluation: summaries that reached the base station
            # directly stay exact; delta synopses are evaluated with SE;
            # estimates add (the tree subtrees and the delta account for
            # disjoint items).
            total, estimates = algo.evaluate(_fuse(algo, received))
            for summary in summaries:
                total += summary.n
                for item, count in summary.counts.items():
                    estimates[item] = estimates.get(item, 0.0) + count
            slack = algo.report_slack
        reported = report_from_estimates(
            estimates, total * slack, self._support, self.epsilon
        )
        return FIOutcome(reported=reported, total_estimate=total, estimates=estimates)
