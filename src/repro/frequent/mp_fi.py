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
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SketchError
from repro.multipath.fm import (
    FMSketch,
    estimate_packed,
    estimate_rows,
    packed_rows,
    rle_words_rows,
    sketches_from_rows,
)
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

    @property
    def relative_error(self) -> float:
        """Nominal relative error of PCSA: ~0.78/sqrt(B)."""
        return 0.78 / math.sqrt(self.num_bitmaps)

    def make(self, count: int, *key: object) -> FMSketch:
        sketch = FMSketch(self.num_bitmaps)
        sketch.insert_count(count, *key)
        return sketch

    def fuse(self, a: FMSketch, b: FMSketch) -> FMSketch:
        return a.fuse(b)

    def estimate(self, sketch: FMSketch) -> float:
        return sketch.estimate()

    def words(self, sketch: FMSketch) -> int:
        return sketch.words()


def item_array(items: Sequence[Item]) -> np.ndarray:
    """Item ids as an int64 array, or as an object array of Python ints
    where one does not fit int64: an id is its reading's exact rounding,
    never a wrapped one."""
    try:
        return np.asarray(items, dtype=np.int64)
    except OverflowError:
        return np.array(list(items), dtype=object)


class ItemRows:
    """Item sketches as packed rows: ``items[i]``'s sketch is ``rows[i]``
    (:func:`~repro.multipath.fm.sketch_to_row` layout).

    A :class:`FrequentItemsSynopsis` may hold a slice of one instead of a
    dict — the packed block forms and :meth:`MultipathFrequentItems.fuse_level`
    make them — so a level's sketches reach the next level as rows.
    """

    __slots__ = ("items", "rows")

    def __init__(self, items: Sequence[Item], rows: np.ndarray) -> None:
        self.items = item_array(items)
        self.rows = rows

    def counts(self, start: int, stop: int) -> Dict[Item, FMSketch]:
        """Rows ``start:stop`` as an ``item -> sketch`` dict."""
        return dict(
            zip(
                self.items[start:stop].tolist(),
                sketches_from_rows(self.rows[start:stop]),
            )
        )


class FrequentItemsSynopsis:
    """A class-indexed frequent-items synopsis: its class, its n~ sketch and
    one count sketch per surviving item (:attr:`counts`).

    Built either from a ``counts`` dict or from a slice ``(table, start,
    stop)`` of an :class:`ItemRows` table, whose dict is made on first read.
    Synopses are never changed once built.
    """

    __slots__ = ("klass", "n_sketch", "_counts", "_rows")

    def __init__(
        self,
        klass: int,
        n_sketch: object,
        counts: Optional[Dict[Item, object]] = None,
        rows: Optional[Tuple[ItemRows, int, int]] = None,
    ) -> None:
        if (counts is None) == (rows is None):
            raise ValueError("a synopsis takes counts or rows, not both")
        self.klass = klass
        self.n_sketch = n_sketch
        self._counts = counts
        self._rows = rows

    @property
    def counts(self) -> Dict[Item, object]:
        """Item -> count sketch."""
        if self._counts is None:
            self._counts = self._rows[0].counts(*self._rows[1:])
        return self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequentItemsSynopsis):
            return NotImplemented
        return (self.klass, self.n_sketch, self.counts) == (
            other.klass,
            other.n_sketch,
            other.counts,
        )

    def __repr__(self) -> str:
        return (
            f"FrequentItemsSynopsis(klass={self.klass!r}, "
            f"n_sketch={self.n_sketch!r}, counts={self.counts!r})"
        )

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

    def fuse_level(
        self, inboxes: Sequence[Sequence[Mapping[int, FrequentItemsSynopsis]]]
    ) -> Tuple[List[Dict[int, FrequentItemsSynopsis]], List[int]]:
        """:meth:`fuse_collections` of every inbox of a level, and the
        :meth:`collection_words` of each result.

        Only for FM operators (both ⊕ strategies :class:`FMOperator`). The
        fold's control flow — class queues, n-sketch ORs, promotion
        thresholds — runs per inbox on packed integers and records every
        pair fusion on a tape (:meth:`_fold_handles`); the item sketches
        then follow the tape as packed uint32 rows, one batch per tape depth
        across the whole level: gathered, OR-ed per item and pruned where
        the fusion promoted. A fused synopsis keeps its items as rows of the
        level's table (:class:`ItemRows`), so the next level reads them
        without a sketch object. Results equal the per-inbox fold; only the
        order of a synopsis' items, which nothing reads, may differ.
        Collections are keyed by their synopses' classes, as Algorithm 2
        and the packed block forms build them.
        """
        n_bitmaps = self.n_operator.num_bitmaps

        # -- handles: every distinct input synopsis ------------------------
        inputs: List[FrequentItemsSynopsis] = []
        seen: Dict[int, int] = {}
        klass_of: List[int] = []
        n_of: List[int] = []
        # A broadcast payload sits in several inboxes: each collection is
        # read once.
        read: Dict[int, List[int]] = {}
        cells: List[List[List[int]]] = []
        for inbox in inboxes:
            collections = []
            for collection in inbox:
                handles = read.get(id(collection))
                if handles is None:
                    handles = read[id(collection)] = []
                    for klass, synopsis in collection.items():
                        handle = seen.get(id(synopsis))
                        if handle is None:
                            handle = seen[id(synopsis)] = len(inputs)
                            inputs.append(synopsis)
                            klass_of.append(klass)
                            n_of.append(synopsis.n_sketch._packed)
                        handles.append(handle)
                collections.append(handles)
            cells.append(collections)
        pairs, thresholds, results = self._fold_handles(cells, klass_of, n_of)
        owners = sorted({handle for result in results for handle in result})

        # -- item sketches: the tape, one depth at a time ------------------
        pool = _ItemPool(inputs, self.operator.num_bitmaps, len(klass_of))
        if thresholds:
            pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            outs = np.arange(len(inputs), len(klass_of))
            thresholds = np.array(thresholds)
            # A fusion's depth: one past its deeper input's (inputs: 0).
            depth = np.zeros(len(klass_of), dtype=np.int64)
            while True:
                deeper = np.maximum(depth[pairs[:, 0]], depth[pairs[:, 1]])
                deeper += 1
                if np.array_equal(deeper, depth[outs]):
                    break
                depth[outs] = deeper
            # A handle's rows die with the deepest fusion reading them; a
            # result's never do.
            last_read = np.zeros(len(klass_of), dtype=np.int64)
            np.maximum.at(last_read, pairs.reshape(-1), np.repeat(deeper, 2))
            last_read[owners] = 0
            order = np.argsort(deeper, kind="stable")
            for batch in np.split(
                order, np.flatnonzero(np.diff(deeper[order])) + 1
            ):
                pool.fuse(pairs[batch], outs[batch], thresholds[batch], self.eta)
                pool.drop(np.flatnonzero(last_read == deeper[batch[0]]))

        # -- results: every result synopsis over one compact table -------
        # Rows are copied out of the pool, so no result keeps the level's
        # intermediate fusions (or an earlier level's table) alive.
        index, lengths = pool.ranges(np.asarray(owners, dtype=np.int64))
        rows = np.take(pool.rows, index, axis=0)
        table = ItemRows(np.take(pool.values, np.take(pool.codes, index)), rows)
        stops = np.cumsum(lengths).tolist()
        built = {
            handle: FrequentItemsSynopsis(
                klass_of[handle],
                inputs[handle].n_sketch
                if handle < len(inputs)
                else FMSketch.from_packed(n_bitmaps, n_of[handle]),
                rows=(table, stop - length, stop),
            )
            for handle, length, stop in zip(owners, lengths.tolist(), stops)
        }
        # collection_words: 1 + n words per synopsis, 1 + words per item.
        words = 1 + lengths + rle_words_rows(
            packed_rows([n_of[handle] for handle in owners], n_bitmaps)
        )
        words += np.bincount(
            np.repeat(np.arange(len(owners)), lengths),
            weights=rle_words_rows(rows),
            minlength=len(owners),
        ).astype(np.int64)
        words_of = dict(zip(owners, words.tolist()))
        return (
            [
                {klass_of[handle]: built[handle] for handle in result}
                for result in results
            ],
            [sum(words_of[handle] for handle in result) for result in results],
        )

    def _fold_handles(
        self, cells: List[List[List[int]]], klass_of: List[int], n_of: List[int]
    ) -> Tuple[List[int], List[float], List[List[int]]]:
        """:meth:`fuse_collections`' control flow over synopsis handles.

        ``cells`` holds per inbox its collections as handle lists, one
        handle per class; a handle's class and packed n~ sketch are
        ``klass_of`` / ``n_of`` entries, and each pair fusion appends the
        new handle's there. Returns the tape — the fused pairs ``a, b``
        flat, and per fusion its prune threshold, ``-inf`` unless it
        promoted — and each inbox's result handles in class order.

        A fold step sorts the running result's handles and the next
        collection's by class, stably (the result's first, as
        :meth:`fuse_into_classes` queues them), and sweeps the classes
        upward: a class holds the result's synopsis, the collection's and
        a promoted one carried up from below, at most one each, fused from
        the back of that queue.
        """
        n_bitmaps = self.n_operator.num_bitmaps
        epsilon, log_n = self.epsilon, self.log_n
        pairs: List[int] = []
        thresholds: List[float] = []
        add_pair, add_threshold = pairs.extend, thresholds.append
        add_class, add_n = klass_of.append, n_of.append

        def fuse(a: int, b: int) -> Tuple[int, bool]:
            """Algorithm 2 on handles: the fused handle, and whether it
            was promoted."""
            klass = klass_of[a]
            n = n_of[a] | n_of[b]
            n_estimate = estimate_packed(n, n_bitmaps)
            add_n(n)
            add_pair((a, b))
            if n_estimate > 2 ** (klass + 1):
                add_class(klass + 1)
                add_threshold(epsilon * n_estimate / log_n)
                return len(n_of) - 1, True
            add_class(klass)
            add_threshold(-math.inf)
            return len(n_of) - 1, False

        by_class = klass_of.__getitem__
        results = []
        for collections in cells:
            result = collections[0]
            for handles in collections[1:]:
                if not handles:
                    continue
                if not result:
                    result = handles
                    continue
                waiting = sorted(result + handles, key=by_class)
                result = []
                carry = -1
                at, count = 0, len(waiting)
                while at < count or carry >= 0:
                    if carry >= 0 and (
                        at == count or klass_of[carry] < klass_of[waiting[at]]
                    ):
                        result.append(carry)
                        carry = -1
                        continue
                    first = waiting[at]
                    at += 1
                    if at < count and klass_of[waiting[at]] == klass_of[first]:
                        # Queue [first, twin, carry?]: fuse from the back.
                        twin = waiting[at]
                        at += 1
                        if carry >= 0:
                            twin, promoted = fuse(carry, twin)
                            carry = -1
                            if promoted:
                                carry = twin
                                result.append(first)
                                continue
                        fused, promoted = fuse(twin, first)
                    elif carry >= 0:
                        fused, promoted = fuse(carry, first)
                        carry = -1
                    else:
                        result.append(first)
                        continue
                    if promoted:
                        carry = fused
                    else:
                        result.append(fused)
            results.append(result)
        return pairs, thresholds, results

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


#: Spare rows an :class:`_ItemPool` rebuild adds beyond its live rows.
_POOL_SLACK = 1 << 12

#: Input rows one :meth:`_ItemPool.fuse` run gathers and sorts at most
#: (a single fusion may exceed it).
_FUSE_ROWS = 1 << 13


class _ItemPool:
    """The item sketches of :meth:`MultipathFrequentItems.fuse_level`.

    One growing table of packed rows, each tagged with its item's code (its
    rank among the level's items, :attr:`values`); handle ``h`` owns rows
    ``start[h]:stop[h]``. It opens with the input synopses' rows: sliced
    from their :class:`ItemRows` tables, or read off their dicts.
    """

    def __init__(
        self, inputs: Sequence[FrequentItemsSynopsis], num_bitmaps: int, handles: int
    ) -> None:
        self.start = np.zeros(handles, dtype=np.int64)
        self.stop = np.zeros(handles, dtype=np.int64)
        loose, items, packs = [], [], []
        tables: Dict[int, Tuple[ItemRows, List[int], List[int], List[int]]] = {}
        for handle, synopsis in enumerate(inputs):
            backing = synopsis._rows
            if backing is None:
                loose.append(handle)
                items.extend(synopsis.counts)
                packs.extend(
                    [sketch._packed for sketch in synopsis.counts.values()]
                )
            else:
                table, first, last = backing
                entry = tables.get(id(table))
                if entry is None:
                    entry = tables[id(table)] = (table, [], [], [])
                entry[1].append(handle)
                entry[2].append(first)
                entry[3].append(last)
        lengths = [len(inputs[handle].counts) for handle in loose]
        self._place(np.asarray(loose, dtype=np.int64), np.asarray(lengths), 0)
        item_parts = [item_array(items)]
        row_parts = [packed_rows(packs, num_bitmaps)]
        offset = len(items)
        for table, handles, firsts, lasts in tables.values():
            index, lengths = _ranges(np.asarray(firsts), np.asarray(lasts))
            self._place(np.asarray(handles), lengths, offset)
            item_parts.append(np.take(table.items, index))
            row_parts.append(np.take(table.rows, index, axis=0))
            offset += len(index)
        self.values, self.codes = np.unique(
            np.concatenate(item_parts), return_inverse=True
        )
        self.rows = np.concatenate(row_parts)
        self.size = offset

    def _place(self, handles: np.ndarray, lengths: np.ndarray, offset: int) -> None:
        """Own consecutive rows from ``offset`` on, ``lengths[i]`` each."""
        ends = offset + np.cumsum(lengths, dtype=np.int64)
        self.start[handles] = ends - lengths
        self.stop[handles] = ends

    def ranges(self, handles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row indices of ``handles``' rows, one after the other, and how
        many each owns."""
        return _ranges(self.start[handles], self.stop[handles])

    def drop(self, handles: np.ndarray) -> None:
        """Give up ``handles``' rows: no later fusion reads them. The next
        rebuild (:meth:`_append`) leaves them out."""
        self.start[handles] = self.stop[handles] = 0

    def _append(self, codes: np.ndarray, rows: np.ndarray) -> int:
        """Store rows at the end of the table; returns their first row.

        Out of room, the table is rebuilt from its live rows first (those
        of handles still owning any), with headroom for half as many
        again."""
        if self.size + len(codes) > len(self.codes):
            live = np.flatnonzero(self.stop > self.start)
            index, lengths = self.ranges(live)
            capacity = (3 * (len(index) + len(codes))) // 2 + _POOL_SLACK
            grown_codes = np.empty(capacity, dtype=np.int64)
            np.take(self.codes, index, out=grown_codes[: len(index)])
            grown_rows = np.empty((capacity, self.rows.shape[1]), dtype=np.uint32)
            np.take(self.rows, index, axis=0, out=grown_rows[: len(index)])
            self.codes, self.rows, self.size = grown_codes, grown_rows, len(index)
            self._place(live, lengths, 0)
        first, self.size = self.size, self.size + len(codes)
        self.codes[first : self.size] = codes
        self.rows[first : self.size] = rows
        return first

    def fuse(
        self, pairs: np.ndarray, outs: np.ndarray, thresholds: np.ndarray, eta: float
    ) -> None:
        """Run independent pair fusions ``pairs[i] -> outs[i]`` (Algorithm
        2's item side): the union of both handles' items, each item's
        sketches OR-ed, minus — where the fusion promoted, so its threshold
        is finite — the items with ``threshold >= eta * estimate``. Cut
        into runs of about :data:`_FUSE_ROWS` input rows, so the sort's
        temporaries stay small."""
        sizes = np.cumsum((self.stop[pairs] - self.start[pairs]).sum(axis=1))
        cuts = np.unique(
            np.searchsorted(sizes, np.arange(_FUSE_ROWS, sizes[-1], _FUSE_ROWS))
        )
        for part in np.split(
            np.arange(len(pairs)), cuts[(cuts > 0) & (cuts < len(pairs))]
        ):
            self._fuse(pairs[part], outs[part], thresholds[part], eta)

    def _fuse(
        self, pairs: np.ndarray, outs: np.ndarray, thresholds: np.ndarray, eta: float
    ) -> None:
        """:meth:`fuse` of one run."""
        entries = len(pairs)
        index, lengths = self.ranges(pairs.reshape(-1))
        # One sort key per row: (entry, item code). A handle holds an item
        # once, so an entry's key appears at most twice, once per side.
        key = np.repeat(np.arange(entries).repeat(2), lengths)
        key *= len(self.values)
        key += np.take(self.codes, index)
        order = np.argsort(key, kind="stable")
        key, index = key[order], index[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        rows = np.take(self.rows, index[starts], axis=0)
        second = np.flatnonzero(~first)
        rows[np.cumsum(first)[second] - 1] |= np.take(
            self.rows, index[second], axis=0
        )
        owner, codes = np.divmod(key[starts], len(self.values))
        # An unpromoted fusion's threshold is -inf: it keeps every item.
        keep = np.take(thresholds, owner) < eta * estimate_rows(rows)
        first_row = self._append(codes[keep], rows[keep])
        self._place(outs, np.bincount(owner[keep], minlength=entries), first_row)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The indices ``starts[i]:stops[i]`` one after the other, and each
    range's length."""
    lengths = stops - starts
    index = np.arange(int(lengths.sum()), dtype=np.int64)
    index += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return index, lengths
