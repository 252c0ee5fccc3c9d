"""Epsilon-deficient summaries and Algorithm 1 (Section 6.1.1).

A summary S = <N, eps, {(u, c~(u))}> holds, for a subtree with N total item
occurrences, estimates satisfying the epsilon-deficiency invariant::

    max(0, c(u) - eps * N)  <=  c~(u)  <=  c(u)

Items whose estimate falls to zero or below are dropped — that is the whole
point: rare items never travel. Algorithm 1 (``generate_summary``) merges a
node's own exact counts with its children's summaries and tightens the node's
error budget to eps(k), its height's precision-gradient value, by uniformly
decrementing every estimate by the *newly granted* slack
``eps(k) * n - sum_j eps_j * n_j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.errors import ConfigurationError

#: Items are plain hashables (ints in all our workloads).
Item = int


@dataclass(frozen=True)
class Summary:
    """An epsilon-deficient frequency summary for one subtree."""

    n: int
    epsilon: float
    counts: Mapping[Item, float]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigurationError("summary n cannot be negative")
        if self.epsilon < 0:
            raise ConfigurationError("summary epsilon cannot be negative")

    @classmethod
    def from_items(cls, items: Iterable[Item]) -> "Summary":
        """An exact (epsilon = 0) summary of a local item collection."""
        counts: Dict[Item, float] = {}
        total = 0
        for item in items:
            counts[item] = counts.get(item, 0.0) + 1.0
            total += 1
        return cls(n=total, epsilon=0.0, counts=counts)

    @property
    def size(self) -> int:
        """Number of (item, estimate) pairs stored."""
        return len(self.counts)

    def words(self) -> int:
        """Transmission size: one word per item plus one per counter,
        plus the (n, epsilon) header."""
        return 2 + 2 * len(self.counts)

    def estimate(self, item: Item) -> float:
        """The epsilon-deficient estimate for ``item`` (0 if dropped)."""
        return self.counts.get(item, 0.0)

    def items_over(self, threshold: float) -> List[Item]:
        """Items whose estimate exceeds ``threshold``, sorted."""
        return sorted(
            item for item, count in self.counts.items() if count > threshold
        )


def generate_summary(
    children: Sequence[Summary],
    own: Summary,
    epsilon_k: float,
) -> Summary:
    """Algorithm 1: generate an eps(k)-summary from children + own items.

    Args:
        children: the summaries received from the node's children.
        own: the node's local summary (must be exact, epsilon = 0).
        epsilon_k: the precision-gradient value eps(k) for the node's height.

    Returns:
        A summary with error tolerance ``epsilon_k``.

    Raises:
        ConfigurationError: if ``epsilon_k`` regresses below a child's
            tolerance (the gradient must be non-decreasing in height) or the
            node's own summary is not exact.
    """
    if own.epsilon != 0.0:
        raise ConfigurationError("a node's own summary must be exact (eps=0)")
    for child in children:
        if child.epsilon > epsilon_k + 1e-12:
            raise ConfigurationError(
                f"child tolerance {child.epsilon} exceeds eps(k)={epsilon_k}; "
                "the precision gradient must be non-decreasing"
            )

    # Step 1: n := sum_j n_j + n_0
    total = own.n + sum(child.n for child in children)

    # Step 2: pointwise-sum all estimates.
    merged: Dict[Item, float] = dict(own.counts)
    for child in children:
        for item, count in child.counts.items():
            merged[item] = merged.get(item, 0.0) + count

    # Step 3: decrement by the slack newly granted at this node and drop
    # non-positive estimates.
    slack = epsilon_k * total - sum(child.epsilon * child.n for child in children)
    if slack < -1e-9:
        raise ConfigurationError("negative slack: inconsistent gradient values")
    slack = max(0.0, slack)
    pruned: Dict[Item, float] = {}
    for item, count in merged.items():
        remaining = count - slack
        if remaining > 0:
            pruned[item] = remaining
    return Summary(n=total, epsilon=epsilon_k, counts=pruned)


def exact_counts(collections: Iterable[Iterable[Item]]) -> Dict[Item, int]:
    """Ground-truth counts over several item collections (for tests/metrics)."""
    counts: Dict[Item, int] = {}
    for collection in collections:
        for item in collection:
            counts[item] = counts.get(item, 0) + 1
    return counts
