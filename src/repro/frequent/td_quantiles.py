"""Quantiles over multi-path and Tributary-Delta topologies (§5 + §6.1.4).

Section 5 names quantiles among the aggregates the framework supports —
"the Uniform sample algorithm can be used to compute various other
aggregates (e.g., Quantiles, Statistical moments) using the framework" —
and Section 6.1.4 contributes the precision-gradient tree algorithm. This
module supplies the remaining two pieces and the combination:

* a duplicate-insensitive **weighted bottom-k sample** synopsis
  (:class:`QuantileSynopsis`). Priorities are deterministic exponential
  clocks, ``-ln(u)/w`` for a uniform hash ``u`` and entry weight ``w`` —
  the weighted generalisation of the paper's bottom-k uniform sample
  (Efraimidis-Spirakis order sampling). Identical entries draw identical
  priorities, so fusion (union, keep the k smallest) is ODI.
* a **conversion function**: a tributary's Greenwald-Khanna summary of n
  values becomes r stratified representatives (the (j+1/2)/r-quantiles of
  the summary), each carrying weight n/r. The representatives inherit the
  summary's eps_a rank error; the delta adds its own sampling error —
  the Section 6.3 error-splitting argument, transplanted.
* :class:`TributaryDeltaQuantiles` — the combined network runner, a
  configuration of :func:`~repro.frequent.passes.td_pass`: T nodes run the
  §6.1.4 precision-gradient GK algorithm, M nodes fuse weighted samples,
  the base station answers quantile queries from whatever mix arrived.

The delta's quantile readout is the weighted empirical quantile of the
surviving entries. For bottom-k order samples this estimator is consistent
as k grows (the survivors are a size-biased-corrected draw); we document it
as approximate, matching the paper's treatment of multi-path aggregates as
"(approximate answers) with accuracy guarantees".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import List, Optional, Sequence, Tuple

from repro._hashing import hash_key, hash_unit
from repro.core.graph import TDGraph
from repro.errors import ConfigurationError
from repro.frequent.gk import GKSummary
from repro.frequent.gradients import MinTotalLoadGradient
from repro.frequent.passes import ItemsFn, td_pass
from repro.frequent.tree_quantiles import TreeQuantiles, merge_received
from repro.network.links import Channel
from repro.network.placement import BASE_STATION, NodeId
from repro.tree.domination import domination_factor

#: One weighted sample entry: (priority, key, value, weight). The key makes
#: duplicate detection exact; the priority orders survival.
WeightedEntry = Tuple[float, int, float, float]


def _exponential_priority(key_hash: int, weight: float) -> float:
    """The deterministic exponential clock ``-ln(u) / w``.

    ``u`` is the key's uniform hash; heavier entries draw stochastically
    smaller priorities, so keeping the k smallest realises weighted
    bottom-k sampling. ``u`` is nudged away from 0 to keep the log finite.
    """
    u = max(hash_unit("tdq-priority", key_hash), 1e-18)
    return -math.log(u) / weight


@dataclass(frozen=True)
class QuantileSynopsis:
    """A duplicate-insensitive weighted bottom-k sample of readings.

    Attributes:
        capacity: the k of bottom-k.
        entries: surviving entries, sorted by priority.
        population_weight: total weight this synopsis accounts for (the sum
            over every *inserted* entry, not just survivors). This field is
            a *diagnostic upper bound*, not an ODI quantity: the entry set
            itself merges by union (exactly duplicate-insensitive, and the
            only thing the quantile readout uses), while the weight adds
            across merges and can double-count partially-overlapping inputs
            on multi-path topologies. :meth:`merge` handles the common
            re-broadcast cases (equal or nested entry sets) exactly; a
            scheme needing an accurate contributing count should piggyback
            an FM sketch as the Count/Sum schemes do.
    """

    capacity: int
    entries: Tuple[WeightedEntry, ...]
    population_weight: float

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("sample capacity must be at least 1")
        if self.population_weight < 0:
            raise ConfigurationError("population weight cannot be negative")

    @classmethod
    def empty(cls, capacity: int) -> "QuantileSynopsis":
        return cls(capacity=capacity, entries=(), population_weight=0.0)

    @classmethod
    def from_weighted_values(
        cls,
        capacity: int,
        keyed_values: Sequence[Tuple[int, float, float]],
    ) -> "QuantileSynopsis":
        """Build a synopsis from (key_hash, value, weight) triples."""
        entries = sorted(
            (_exponential_priority(key, weight), key, value, weight)
            for key, value, weight in keyed_values
        )
        total = float(sum(weight for _, _, weight in keyed_values))
        return cls(
            capacity=capacity,
            entries=tuple(entries[:capacity]),
            population_weight=total,
        )

    def merge(self, other: "QuantileSynopsis") -> "QuantileSynopsis":
        """SF: union the entries, keep the k smallest priorities.

        Population weights add, except that the union of *identical* entry
        sets (a pure re-broadcast duplicate) keeps the larger weight — the
        cheap ODI correction that suffices for the rings topology, where a
        synopsis is either disjoint from a peer or literally the same
        object forwarded along another path.
        """
        capacity = min(self.capacity, other.capacity)
        mine = set(self.entries)
        theirs = set(other.entries)
        union = sorted(mine | theirs)
        if mine == theirs:
            weight = max(self.population_weight, other.population_weight)
        elif mine <= theirs:
            weight = other.population_weight
        elif theirs <= mine:
            weight = self.population_weight
        else:
            weight = self.population_weight + other.population_weight
        return QuantileSynopsis(
            capacity=capacity,
            entries=tuple(union[:capacity]),
            population_weight=weight,
        )

    def words(self) -> int:
        """Transmission size: (value, weight) per entry plus a header.

        Keys and priorities need not travel: both are recomputed from the
        entry's deterministic key hash, which we fold into the value word
        pair for accounting purposes (2 words per entry, 2 header words).
        """
        return 2 + 2 * len(self.entries)

    def quantile(self, phi: float) -> float:
        """Weighted empirical phi-quantile of the surviving entries."""
        if not 0.0 <= phi <= 1.0:
            raise ConfigurationError("phi must be in [0, 1]")
        if not self.entries:
            raise ConfigurationError("cannot query an empty synopsis")
        ranked = sorted(
            (value, weight) for _, _, value, weight in self.entries
        )
        total = sum(weight for _, weight in ranked)
        target = phi * total
        accumulated = 0.0
        for value, weight in ranked:
            accumulated += weight
            if accumulated >= target:
                return value
        return ranked[-1][0]

    def values(self) -> List[float]:
        """Surviving values, in priority order."""
        return [value for _, _, value, _ in self.entries]


def synopsis_from_readings(
    node: NodeId, epoch: int, values: Sequence[float], capacity: int
) -> QuantileSynopsis:
    """SG: every local reading becomes a unit-weight entry.

    Keys are (node, epoch, occurrence index), so re-generated synopses for
    the same node and epoch are identical — the ODI requirement.
    """
    keyed = [
        (hash_key("tdq", node, epoch, index), float(value), 1.0)
        for index, value in enumerate(values)
    ]
    return QuantileSynopsis.from_weighted_values(capacity, keyed)


def convert_summary(
    summary: GKSummary,
    sender: NodeId,
    epoch: int,
    capacity: int,
    representatives: int = 16,
) -> Optional[QuantileSynopsis]:
    """Conversion function: GK summary -> weighted sample synopsis.

    ``r = min(representatives, n)`` stratified representatives are read off
    the summary at the (j + 1/2)/r quantiles, each weighted n/r, keyed by
    (sender, epoch, j) for determinism. The representatives preserve the
    summary's distribution to within its rank error plus the 1/(2r)
    stratification width.
    """
    if representatives < 1:
        raise ConfigurationError("representatives must be at least 1")
    if summary.n == 0:
        return None
    r = min(representatives, summary.n)
    weight = summary.n / r
    keyed = [
        (
            hash_key("tdq-conv", sender, epoch, j),
            summary.query_quantile((j + 0.5) / r),
            weight,
        )
        for j in range(r)
    ]
    return QuantileSynopsis.from_weighted_values(capacity, keyed)


@dataclass
class QuantilesOutcome:
    """One epoch's quantile state at the base station.

    Whichever side(s) delivered, the outcome can answer quantile queries:
    an all-tree epoch carries a merged GK summary, a delta epoch a fused
    sample synopsis, and a mixed epoch both (direct tree summaries are
    converted and fused in, so ``synopsis`` covers everything).
    """

    summary: Optional[GKSummary]
    synopsis: Optional[QuantileSynopsis]
    contributing_weight: float

    def quantile(self, phi: float) -> float:
        """Answer a phi-quantile query from whatever state arrived."""
        if self.synopsis is not None and self.synopsis.entries:
            return self.synopsis.quantile(phi)
        if self.summary is not None and self.summary.n > 0:
            return self.summary.query_quantile(phi)
        raise ConfigurationError("no data reached the base station this epoch")

    def quantiles(self, phis: Sequence[float]) -> List[float]:
        return [self.quantile(phi) for phi in phis]


class TributaryDeltaQuantiles:
    """Quantile aggregation over a Tributary-Delta graph.

    T nodes run the Section 6.1.4 precision-gradient GK algorithm with
    tolerance ``epsilon``; M nodes run the weighted-sample synopsis with
    ``sample_size`` entries; tree summaries entering the delta are converted
    with :func:`convert_summary`. With an all-tree graph this degrades to
    the pure §6.1.4 algorithm, with an all-multipath graph to a pure
    sample-quantile scheme — mirroring how the Count/Sum schemes behave at
    the extremes.

    Args:
        graph: the labelled Tributary-Delta topology.
        epsilon: the tree side's rank-error tolerance.
        sample_size: the delta side's bottom-k capacity.
        representatives: stratified representatives per converted summary.
        tree_attempts / multipath_attempts: retransmission budgets.
    """

    def __init__(
        self,
        graph: TDGraph,
        epsilon: float = 0.05,
        sample_size: int = 64,
        representatives: int = 16,
        tree_attempts: int = 1,
        multipath_attempts: int = 1,
        name: str = "TD-quantiles",
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError("epsilon must be in (0, 1)")
        if sample_size < 1:
            raise ConfigurationError("sample_size must be at least 1")
        if tree_attempts < 1 or multipath_attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        self._graph = graph
        self.epsilon = epsilon
        self._sample_size = sample_size
        self._representatives = representatives
        self._tree_attempts = tree_attempts
        self._multipath_attempts = multipath_attempts
        self.name = name
        #: The tributaries' §6.1.4 GK algorithm (Min Total-load at epsilon).
        self._tributary = TreeQuantiles(
            graph.tree,
            MinTotalLoadGradient(epsilon, domination_factor(graph.tree)),
            tree_attempts,
        )

    def _convert(
        self, summary: GKSummary, sender: NodeId, epoch: int
    ) -> Optional[QuantileSynopsis]:
        return convert_summary(
            summary, sender, epoch, self._sample_size, self._representatives
        )

    # -- one epoch -----------------------------------------------------------

    def run_epoch(
        self, epoch: int, channel: Channel, items_fn: ItemsFn
    ) -> QuantilesOutcome:
        graph = self._graph
        tree_payloads, received = td_pass(
            graph.rings, graph.is_multipath, epoch, channel, items_fn,
            local=lambda node, epoch, items: synopsis_from_readings(
                node, epoch, [float(v) for v in items], self._sample_size
            ),
            fuse=lambda parts: reduce(QuantileSynopsis.merge, parts),
            words=QuantileSynopsis.words,
            multipath_attempts=self._multipath_attempts, tree=graph.tree,
            tree_step=self._tributary.step, tree_attempts=self._tree_attempts,
            convert=self._convert,
        )
        if graph.is_tree(BASE_STATION):
            summaries = [summary for _, summary in tree_payloads]
            root = merge_received(summaries) if summaries else None
            weight = float(root.n) if root is not None else 0.0
            return QuantilesOutcome(root, None, weight)

        converted = [
            self._convert(summary, sender, epoch)
            for sender, summary in tree_payloads
        ]
        parts = received + [part for part in converted if part is not None]
        fused = reduce(QuantileSynopsis.merge, parts) if parts else None
        weight = fused.population_weight if fused is not None else 0.0
        return QuantilesOutcome(None, fused, weight)
