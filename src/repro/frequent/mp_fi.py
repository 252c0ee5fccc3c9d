"""The multi-path frequent-items algorithm (Section 6.2).

Subtraction is the obstacle: Algorithm 1 prunes by *subtracting* slack, and
no duplicate-insensitive subtraction with small synopses exists. The paper's
algorithm therefore:

* replaces subtraction with a **rising drop threshold**: an item is dropped
  once eps * n~ / log N >= eta * c~(u) (eta > 1 is slack that tolerates the
  inaccuracy of the duplicate-insensitive addition);
* organises synopses into **classes**: class i represents ~2^i items, only
  same-class synopses fuse, and a fusion whose n~ exceeds 2^(i+1) promotes
  the result (and prunes, Algorithm 2);
* performs all counting with a duplicate-insensitive sum operator ⊕ — the
  accuracy-preserving KMV operator (Definition 1 / [3]) or the cheaper
  best-effort FM operator of [7] that the paper's experiments use (§7.4.3).

SG prunes local items with frequency <= i * n0 * eps / log N (i = floor(log2
n0)), then builds per-item ⊕-sketches. SE unions every class's sketches and
reports items whose estimate exceeds (s - eps) * N~.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.errors import ConfigurationError, SketchError
from repro.multipath.fm import FMSketch
from repro.multipath.kmv import KMVSketch
from repro.network.placement import NodeId

Item = int


class CountOperator(Protocol):
    """The ⊕ strategy: build, fuse, and read duplicate-insensitive counts."""

    def make(self, count: int, *key: object):
        """A sketch representing ``count`` items keyed by ``key``."""
        ...

    def fuse(self, a, b):
        """X ⊕ Y."""
        ...

    def estimate(self, sketch) -> float:
        """Read the (approximate) total."""
        ...

    def words(self, sketch) -> int:
        """Transmission size in words."""
        ...


@dataclass(frozen=True)
class KMVOperator:
    """Accuracy-preserving ⊕ (Definition 1): bottom-k over virtual items."""

    k: int = 32

    @property
    def relative_error(self) -> float:
        """Nominal relative error: ~1/sqrt(k - 2) for a bottom-k sketch."""
        return 1.0 / math.sqrt(max(2, self.k - 2))

    def make(self, count: int, *key: object) -> KMVSketch:
        sketch = KMVSketch(k=self.k)
        sketch.insert_count(count, *key)
        return sketch

    def fuse(self, a: KMVSketch, b: KMVSketch) -> KMVSketch:
        return a.fuse(b)

    def estimate(self, sketch: KMVSketch) -> float:
        return sketch.estimate()

    def words(self, sketch: KMVSketch) -> int:
        return sketch.words()


@dataclass(frozen=True)
class FMOperator:
    """Best-effort ⊕ of [7], as used by the paper's §7.4.3 experiments."""

    num_bitmaps: int = 8
    bits: int = 32

    @property
    def relative_error(self) -> float:
        """Nominal relative error of PCSA: ~0.78/sqrt(B)."""
        return 0.78 / math.sqrt(self.num_bitmaps)

    def make(self, count: int, *key: object) -> FMSketch:
        sketch = FMSketch(self.num_bitmaps, self.bits)
        sketch.insert_count(count, *key)
        return sketch

    def fuse(self, a: FMSketch, b: FMSketch) -> FMSketch:
        return a.fuse(b)

    def estimate(self, sketch: FMSketch) -> float:
        return sketch.estimate()

    def words(self, sketch: FMSketch) -> int:
        return sketch.words()


@dataclass
class FrequentItemsSynopsis:
    """A class-indexed frequent-items synopsis."""

    klass: int
    n_sketch: object
    counts: Dict[Item, object]

    def words(self, operator: CountOperator, n_operator: Optional[CountOperator] = None) -> int:
        sizer = n_operator or operator
        total = 1 + sizer.words(self.n_sketch)
        for sketch in self.counts.values():
            total += 1 + operator.words(sketch)
        return total


class MultipathFrequentItems:
    """SG / SF / SE for frequent items over a multi-path topology."""

    name = "SD frequent items"

    def __init__(
        self,
        epsilon: float,
        total_items_hint: int,
        eta: float = 1.5,
        operator: Optional[CountOperator] = None,
        n_operator: Optional[CountOperator] = None,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError("epsilon must be in (0, 1)")
        if eta <= 1.0:
            raise ConfigurationError("the paper restricts eta > 1")
        if total_items_hint < 2:
            raise ConfigurationError("total_items_hint must be at least 2")
        self.epsilon = epsilon
        self.eta = eta
        self.operator = operator or KMVOperator()
        # The n~ sketch is one per synopsis (vs one per item) and its error
        # multiplies into every threshold, so it gets a larger budget.
        self.n_operator = n_operator or KMVOperator(k=128)
        self.log_n = math.log2(total_items_hint)

    @property
    def report_slack(self) -> float:
        """The (1 - eps_c) factor of Theorem 1's lower bound: estimates can
        undershoot true counts by the operator's relative error, so report
        thresholds scale down accordingly to preserve no-false-negatives."""
        relative = getattr(self.operator, "relative_error", 0.0)
        return max(0.0, 1.0 - relative)

    # -- SG ---------------------------------------------------------------

    def class_rule(self, n: int) -> Tuple[int, float]:
        """SG's class ``floor(log2 n)`` for ``n`` items, and its drop cutoff
        ``class * n * eps / log N``: an item counted at most that never
        travels."""
        klass = int(math.floor(math.log2(n))) if n > 1 else 0
        return klass, klass * n * self.epsilon / self.log_n

    def generate(
        self, node: NodeId, epoch: int, items: Sequence[Item]
    ) -> Optional[FrequentItemsSynopsis]:
        """Build the node's local class-i synopsis (None for no items)."""
        if not items:
            return None
        counts: Dict[Item, int] = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        return self.synopsis(counts, len(items), "fi", node, epoch)

    def synopsis(
        self, counts: Mapping[Item, int], n: int, tag: str, node: NodeId, epoch: int
    ) -> FrequentItemsSynopsis:
        """SG over ``n`` items counted ``counts``: the class, the items above
        its cutoff and the n sketch, keyed ``(tag[-n], node, epoch[, item])``."""
        klass, cutoff = self.class_rule(n)
        sketches = {
            item: self.operator.make(count, tag, node, epoch, item)
            for item, count in counts.items()
            if count > cutoff
        }
        n_sketch = self.n_operator.make(n, tag + "-n", node, epoch)
        return FrequentItemsSynopsis(klass=klass, n_sketch=n_sketch, counts=sketches)

    # -- SF (Algorithm 2) --------------------------------------------------------

    def fuse_pair(
        self, a: FrequentItemsSynopsis, b: FrequentItemsSynopsis
    ) -> FrequentItemsSynopsis:
        """Algorithm 2: fuse two same-class synopses, possibly promoting."""
        if a.klass != b.klass:
            raise SketchError("only same-class synopses can be fused")
        n_sketch = self.n_operator.fuse(a.n_sketch, b.n_sketch)
        counts: Dict[Item, object] = dict(a.counts)
        for item, sketch in b.counts.items():
            if item in counts:
                counts[item] = self.operator.fuse(counts[item], sketch)
            else:
                counts[item] = sketch
        klass = a.klass
        n_estimate = self.n_operator.estimate(n_sketch)
        if n_estimate > 2 ** (klass + 1):
            klass += 1
            threshold = self.epsilon * n_estimate / self.log_n
            counts = {
                item: sketch
                for item, sketch in counts.items()
                if threshold < self.eta * self.operator.estimate(sketch)
            }
        return FrequentItemsSynopsis(klass=klass, n_sketch=n_sketch, counts=counts)

    def fuse_into_classes(
        self, synopses: Sequence[FrequentItemsSynopsis]
    ) -> Dict[int, FrequentItemsSynopsis]:
        """Fuse a batch down to at most one synopsis per class.

        Starting with the smallest class, same-class synopses fuse pairwise;
        promotions cascade upward (a promoted synopsis joins the next
        class's queue), mirroring the node procedure of Section 6.2.
        """
        queues: Dict[int, List[FrequentItemsSynopsis]] = {}
        for synopsis in synopses:
            queues.setdefault(synopsis.klass, []).append(synopsis)
        result: Dict[int, FrequentItemsSynopsis] = {}
        while queues:
            klass = min(queues)
            queue = queues.pop(klass)
            while len(queue) > 1:
                fused = self.fuse_pair(queue.pop(), queue.pop())
                if fused.klass == klass:
                    queue.append(fused)
                else:
                    queues.setdefault(fused.klass, []).append(fused)
            if queue:
                result[klass] = queue[0]
        return result

    def fuse_collections(
        self, collections: Sequence[Mapping[int, FrequentItemsSynopsis]]
    ) -> Dict[int, FrequentItemsSynopsis]:
        """Left-fold per-class collections, two at a time.

        ``fuse_into_classes`` over the running result and the next
        collection, empty collections being the identity. Strictly
        sequential: promotion prunes against the running n~ estimate, so the
        fold order is part of the result and one :meth:`fuse_into_classes`
        over every input at once is NOT equivalent.
        """
        if not collections:
            raise ValueError("fuse_collections requires at least one collection")
        result = collections[0]
        for collection in collections[1:]:
            if not collection:
                continue
            if not result:
                result = dict(collection)
                continue
            result = self.fuse_into_classes(
                [*result.values(), *collection.values()]
            )
        return result

    # -- SE ---------------------------------------------------------------------

    def evaluate(
        self, synopses: Mapping[int, FrequentItemsSynopsis]
    ) -> Tuple[float, Dict[Item, float]]:
        """Total-count estimate and per-item frequency estimates.

        Everything is combined "again using ⊕" (sketch union), including the
        n~ sketches: synopses of different classes can overlap (the same
        node's items may have been folded into different-class fusions on
        different paths), and only a duplicate-insensitive combination
        avoids double-counting across classes.
        """
        n_union = None
        merged: Dict[Item, object] = {}
        for synopsis in synopses.values():
            n_union = (
                synopsis.n_sketch
                if n_union is None
                else self.n_operator.fuse(n_union, synopsis.n_sketch)
            )
            for item, sketch in synopsis.counts.items():
                if item in merged:
                    merged[item] = self.operator.fuse(merged[item], sketch)
                else:
                    merged[item] = sketch
        total = self.n_operator.estimate(n_union) if n_union is not None else 0.0
        estimates = {
            item: self.operator.estimate(sketch) for item, sketch in merged.items()
        }
        return total, estimates

    def report(
        self,
        synopses: Mapping[int, FrequentItemsSynopsis],
        support: float,
    ) -> List[Item]:
        """Items whose estimate exceeds (support - epsilon) * N~."""
        total, estimates = self.evaluate(synopses)
        threshold = (support - self.epsilon) * total * self.report_slack
        return sorted(
            item for item, value in estimates.items() if value > threshold
        )

    def collection_words(
        self, synopses: Mapping[int, FrequentItemsSynopsis]
    ) -> int:
        """Transmission size of a per-class synopsis collection."""
        return sum(
            s.words(self.operator, self.n_operator) for s in synopses.values()
        )
