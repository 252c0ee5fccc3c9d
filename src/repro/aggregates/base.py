"""The aggregate protocol shared by every scheme.

An :class:`Aggregate` bundles the three algorithm pieces Section 5 requires
for Tributary-Delta computation:

1. a **tree algorithm** — local partial, exact merge, evaluation;
2. a **multi-path algorithm** — SG / SF / SE over ODI synopses;
3. a **conversion function** — tree partial result -> synopsis, "valid over
   the inputs contributing to the tree result", so an M node can fuse inputs
   without caring whether they came from T or M vertices.

The type parameters: ``P`` is the tree partial-result type, ``S`` the
synopsis type. Implementations must keep SG and the conversion deterministic
in their ``(node, epoch)`` keys — that is what makes re-broadcast duplicates
harmless.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable,
    Generic,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

P = TypeVar("P")
S = TypeVar("S")

#: A WHERE clause's accepted cells of a float64 ``(epochs, nodes)`` readings
#: block, read by sensor ``nodes[i]`` in column ``i``: a bool array of the
#: block's shape.
Mask = Callable[[Sequence[int], np.ndarray], np.ndarray]


class FMColumn(NamedTuple):
    """An FM leaf's column: int64 partials added up the tree, one packed
    row section of ``bitmaps`` words OR-ed through the delta.

    A cell's reading inserts ``weight(reading)`` distinct virtual items
    under ``(label, node, epoch)`` (``FMSketch.insert_count``), and its
    tree partial is that item count; ``weight=None`` is one plain item
    ``(label, node, epoch)`` per cell (``FMSketch.insert``, a Count). A
    partial ``c`` converts to ``c`` virtual items under ``(conv_label,
    sender, epoch)``. ``weight`` maps a float64 readings array to int64
    and raises the leaf's own scalar error on a reading the scalar form
    refuses. Cells ``mask`` rejects (a WHERE clause) hold no item and are
    never hashed.
    """

    bitmaps: int
    label: str
    conv_label: str
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mask: Optional[Mask] = None


class ExtremumColumn(NamedTuple):
    """A Min/Max leaf's column: one float64 value per cell, its tree partial
    and its synopsis alike, reduced by ``ufunc`` (``np.minimum`` or
    ``np.maximum``) wherever FM columns add or OR. ``neutral`` is the
    infinity the ufunc never picks: the leaf's empty partial, and the value
    of every cell ``mask`` rejects."""

    ufunc: np.ufunc
    neutral: float
    mask: Optional[Mask] = None


#: What :meth:`Aggregate.column` declares; ``None`` is an object column.
Column = Union[FMColumn, ExtremumColumn]


class Aggregate(ABC, Generic[P, S]):
    """Tree + multi-path + conversion implementations of one aggregate."""

    #: Human-readable aggregate name ("count", "sum", ...).
    name: str = "aggregate"

    # -- tree algorithm ------------------------------------------------------

    @abstractmethod
    def tree_local(self, node: int, epoch: int, reading: float) -> P:
        """The partial result for a single node's local reading."""

    @abstractmethod
    def tree_merge(self, a: P, b: P) -> P:
        """Exactly merge two disjoint partial results."""

    @abstractmethod
    def tree_eval(self, partial: P) -> float:
        """Translate a tree partial result into an answer."""

    @abstractmethod
    def tree_words(self, partial: P) -> int:
        """Transmission size of a tree partial, in words."""

    def tree_local_block(
        self, nodes: Sequence[int], epochs: Sequence[int], readings
    ) -> List[List[P]]:
        """Tree partials for a whole (level x epoch block) grid.

        ``readings`` is the float64 ``(epochs, nodes)`` matrix of
        :func:`~repro.network.simulator.gather_reading_block` (a workload's:
        one matrix per query). Returns one list per epoch; cell ``[j][i]``
        MUST equal ``tree_local(nodes[i], epochs[j], readings[j, i])``
        exactly — the engine and the scalar oracle are interchangeable only
        while that holds. The fused kernel builds an object leaf's locals
        through it (FM and extremum leaves through their :meth:`column`);
        the default is the loop over the scalar form.
        """
        return [
            [
                self.tree_local(node, epoch, reading)
                for node, reading in zip(nodes, row)
            ]
            for epoch, row in zip(epochs, readings.tolist())
        ]

    # -- multi-path algorithm ------------------------------------------------

    @abstractmethod
    def synopsis_local(self, node: int, epoch: int, reading: float) -> S:
        """SG: the synopsis of a single node's local reading."""

    def synopsis_local_block(
        self, nodes: Sequence[int], epochs: Sequence[int], readings
    ) -> List[List[S]]:
        """SG for a whole (level x epoch block) grid.

        Same contract as :meth:`tree_local_block`: cell ``[j][i]`` must
        equal ``synopsis_local(nodes[i], epochs[j], readings[j, i])``; the
        default is the loop over the scalar form.
        """
        return [
            [
                self.synopsis_local(node, epoch, reading)
                for node, reading in zip(nodes, row)
            ]
            for epoch, row in zip(epochs, readings.tolist())
        ]

    @abstractmethod
    def synopsis_fuse(self, a: S, b: S) -> S:
        """SF: fuse two synopses (must be ODI)."""

    def synopsis_fuse_many(self, synopses: Sequence[S]) -> S:
        """SF over a node's whole inbox: the left fold of :meth:`synopsis_fuse`.

        The result MUST equal folding ``synopses`` (non-empty) left to right
        through :meth:`synopsis_fuse`, errors included; the schemes hand
        every node's local + converted + received synopses over in one
        call. The default is that fold; the FM-backed aggregates override it
        with one OR per sketch slot, the wrappers forward per component.
        """
        result = synopses[0]
        for synopsis in synopses[1:]:
            result = self.synopsis_fuse(result, synopsis)
        return result

    def synopsis_fuse_level(
        self, inboxes: Sequence[Sequence[S]]
    ) -> Tuple[List[S], List[int]]:
        """SF over a whole level: every inbox fused, and each result's words.

        Entry ``i`` of the first list MUST equal
        ``synopsis_fuse_many(inboxes[i])`` and of the second its
        :meth:`synopsis_words`. The fused kernel's object columns fuse a
        level's cells through this one call; the default is the per-inbox
        fold. An aggregate whose fusion vectorizes across inboxes (heavy
        hitters) overrides it.
        """
        fused = [self.synopsis_fuse_many(inbox) for inbox in inboxes]
        return fused, self.synopsis_words_batch(fused)

    @abstractmethod
    def synopsis_eval(self, synopsis: S) -> float:
        """SE: translate a synopsis into an answer."""

    @abstractmethod
    def synopsis_words(self, synopsis: S) -> int:
        """Transmission size of a synopsis, in words."""

    def synopsis_words_batch(self, synopses: Sequence[S]) -> List[int]:
        """Transmission sizes for a whole level's synopses at once.

        Entry ``i`` must equal ``synopsis_words(synopses[i])`` exactly; the
        FM-backed aggregates override this with one vectorized RLE-sizing
        pass (:func:`repro.multipath.fm.words_batch`).
        """
        return [self.synopsis_words(synopsis) for synopsis in synopses]

    # -- conversion ------------------------------------------------------------

    @abstractmethod
    def convert(self, partial: P, sender: int, epoch: int) -> S:
        """Turn a tree partial into an equivalent synopsis.

        ``sender`` is the T vertex whose partial is being converted; keying
        the synopsis by (sender, epoch) keeps the conversion deterministic —
        a tree partial travels one edge, so it is converted at most once per
        epoch, but determinism costs nothing and simplifies reasoning.
        """

    def convert_block(
        self, partials: Sequence[P], senders: Sequence[int], epochs: Sequence[int]
    ) -> List[S]:
        """Batched :meth:`convert` over parallel columns.

        Cell ``i`` must equal ``convert(partials[i], senders[i],
        epochs[i])`` exactly, errors included. The fused kernel converts an
        object leaf's T -> M deliveries of a block through one call (FM
        leaves convert through their :meth:`column`); the default is the
        scalar loop.
        """
        return [
            self.convert(partial, sender, epoch)
            for partial, sender, epoch in zip(partials, senders, epochs)
        ]

    # -- mixed base-station evaluation ----------------------------------------

    def mixed_eval(self, partials: Sequence[P], fused: Optional[S]) -> float:
        """Evaluate tree partials received directly at the base station
        together with the fused delta synopsis.

        Tree partials that reach the base station are exact and disjoint
        from everything the delta accounted for, so they should NOT be
        degraded through the conversion function — this is what gives
        Tributary-Delta its advantage at low loss rates ("some tree nodes
        can directly provide exact aggregates to the base station",
        Section 7.3). The default implementation falls back to converting,
        which subclasses override with an exact combination.
        """
        if fused is None:
            if not partials:
                return 0.0
            merged = partials[0]
            for partial in partials[1:]:
                merged = self.tree_merge(merged, partial)
            return self.tree_eval(merged)
        synopsis = fused
        for index, partial in enumerate(partials):
            converted = self.convert(partial, -(index + 1), 0)
            synopsis = self.synopsis_fuse(synopsis, converted)
        return self.synopsis_eval(synopsis)

    # -- ground truth ------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        """The loss-free answer over a list of sensor readings (for metrics).

        Every leaf aggregate writes it. Wrappers that key on the sensor
        (GROUP BY, the region filter) and workloads have no list form: their
        truth is :meth:`exact_rows`, which gets the node ids.
        """
        raise NotImplementedError(
            f"{type(self).__name__} reads its truth through exact_rows"
        )

    def exact_array(self, readings: np.ndarray, nodes: Sequence[int]) -> float:
        """The loss-free answer over one float64 row of readings, cell ``i``
        read by sensor ``nodes[i]``: the row's :meth:`exact_reduce` where
        that is exact, else ``exact(readings.tolist())``."""
        truths = self.exact_reduce(readings[None], nodes, None)
        if truths is None:
            return self.exact(readings.tolist())
        return truths[0]

    def exact_rows(
        self, readings: np.ndarray, nodes: Sequence[int]
    ) -> List[Tuple[float, dict]]:
        """Per row of a float64 ``(epochs, nodes)`` readings block, the
        row's truth and its *truth extras* (the keys the simulator records
        beside it) — the truth hook
        :func:`~repro.network.simulator.exact_over` calls, once per block.

        Row ``j``'s truth is ``exact_array(readings[j], nodes)``: one
        :meth:`exact_reduce` over the whole block where the truth is an
        exact reduction, else row by row. Plain aggregates record no extras;
        a workload records every query's truth, a GROUP BY every group's.
        """
        truths = self.exact_reduce(readings, nodes, None)
        if truths is None:
            truths = [self.exact_array(row, nodes) for row in readings]
        return [(truth, {}) for truth in truths]

    def exact_reduce(
        self,
        readings: np.ndarray,
        nodes: Sequence[int],
        mask: Optional[np.ndarray],
    ) -> Optional[List[float]]:
        """Per row of a readings block, the truth over the cells ``mask``
        keeps (every cell when None) as one reduction over the block, or
        None where this aggregate's truth is no exact reduction (the
        default) or the block holds a value it cannot reduce exactly.

        Row ``j`` must equal ``exact_array`` of the row's kept cells (and
        their node ids) exactly; a WHERE clause passes its accepted cells
        as ``mask``.
        """
        return None

    # -- epoch-record extras -------------------------------------------------------

    def estimate_extras(self, empty: bool = False) -> dict:
        """Keys the schemes add to an epoch outcome's ``extra`` right after
        the base station's evaluation (``empty``: nothing arrived).

        Read while fresh: the blocked engine records epochs only after the
        whole block ran. Plain aggregates add nothing.
        """
        return {}

    # -- neutral elements --------------------------------------------------------

    def tree_empty(self) -> P:
        """A partial result contributing nothing (the merge identity).

        Used by predicate-filtered queries: a node whose reading fails the
        WHERE clause still relays traffic but contributes the neutral
        element. Aggregates without a natural identity may leave this
        unimplemented; :class:`~repro.query.FilteredAggregate` requires it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no neutral tree partial"
        )

    def synopsis_empty(self) -> S:
        """A synopsis contributing nothing (the fusion identity)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no neutral synopsis"
        )

    # -- capabilities ------------------------------------------------------------

    def synopsis_counts_contributors(self) -> bool:
        """Whether SE of the main synopsis already estimates the number of
        contributing sensors (true for Count), letting schemes skip the
        piggybacked contributing-count sketch."""
        return False

    def supports_group_by(self) -> bool:
        """Whether this aggregate may be wrapped by a spatial GROUP BY.

        Contract for returning ``True``: cell-wise merging over any
        partition of the sensors composes exactly — merging the per-region
        partials of a partition yields the same state as aggregating
        globally, and the same for synopsis fusion.  This holds for
        count/sum/avg/min/max and the synopsis-backed distinct, but not
        for e.g. rank-based summaries whose answers are not decomposable
        per cell.  The default ``False`` makes GROUP BY an actionable
        parse error for unsupported aggregates.
        """
        return False

    # -- fused-kernel slots ------------------------------------------------------

    def column(self) -> Optional[Column]:
        """How the fused kernel carries this leaf: an :class:`FMColumn`, an
        :class:`ExtremumColumn`, or ``None`` (the default) for an object
        column of this leaf's own partials and synopses.

        Declaring an FM column promises: :meth:`tree_local` is the
        column's item count of the reading, :meth:`tree_merge` is integer
        ``+`` and :meth:`tree_words` constant; :meth:`synopsis_local` and
        :meth:`convert` insert those items into a plain
        :class:`~repro.multipath.fm.FMSketch` of ``bitmaps`` bitmaps, fused
        by OR and sized by its packed RLE words. Declaring an extremum
        column promises: the partial and the synopsis are one float, merged
        and fused by ``ufunc``; :meth:`tree_local` is ``reading + 0.0`` (no
        ``-0.0``) and refuses a NaN reading, so values fold alike in any
        order; :meth:`convert` is the identity; :meth:`tree_empty` is
        ``neutral``; and tree and synopsis words are constant. The kernel
        builds every such column's array forms itself
        (:mod:`repro.kernels.td`), bit for bit the scalar forms.
        """
        return None

    def leaf_slots(self) -> List[Tuple["Aggregate", Optional[int]]]:
        """The ``(leaf, reading slot)`` pairs the fused kernel runs this as.

        A leaf's partials and synopses are single values; a wrapper's are
        tuples of its leaves' (:meth:`from_leaves` rebuilds one). The
        reading slot is the index of the workload reading a leaf reads, or
        None for the bare reading. The kernel carries each leaf as its
        :meth:`column` declares. A plain aggregate is its own one leaf.
        """
        return [(self, None)]

    def from_leaves(self, values: Iterator):
        """One partial (or synopsis) from its leaves' values, consumed in
        :meth:`leaf_slots` order."""
        return next(values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def merge_all(aggregate: Aggregate[P, S], partials: Sequence[P]) -> P:
    """Left-fold ``tree_merge`` over a non-empty list of partials."""
    if not partials:
        raise ValueError("merge_all requires at least one partial")
    result = partials[0]
    for partial in partials[1:]:
        result = aggregate.tree_merge(result, partial)
    return result


def fuse_all(aggregate: Aggregate[P, S], synopses: Sequence[S]) -> S:
    """Left-fold ``synopsis_fuse`` over a non-empty list of synopses."""
    if not synopses:
        raise ValueError("fuse_all requires at least one synopsis")
    return aggregate.synopsis_fuse_many(synopses)
