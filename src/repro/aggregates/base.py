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
from typing import TYPE_CHECKING, Generic, List, Optional, Sequence, Tuple, TypeVar

if TYPE_CHECKING:
    import numpy as np

P = TypeVar("P")
S = TypeVar("S")


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
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ) -> List[List[P]]:
        """Tree partials for a whole (level x epoch block) grid.

        ``reading_rows[j]`` holds the level's readings at ``epochs[j]``.
        Returns one list per epoch; cell ``[j][i]`` MUST equal
        ``tree_local(nodes[i], epochs[j], reading_rows[j][i])`` exactly —
        the engine and the scalar oracle are interchangeable only while
        that holds. The default loops over the scalar form; aggregates
        whose local computation vectorizes may override.
        """
        return [
            [
                self.tree_local(node, epoch, reading)
                for node, reading in zip(nodes, row)
            ]
            for epoch, row in zip(epochs, reading_rows)
        ]

    def tree_local_matrix(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        readings: np.ndarray,
    ) -> np.ndarray:
        """Tree partials of a block as one int64 ``(epochs, nodes)`` matrix.

        ``readings`` is the float64 ``(epochs, nodes)`` matrix of
        :func:`~repro.network.simulator.gather_reading_block`; cell
        ``[j, i]`` must equal ``tree_local(nodes[i], epochs[j],
        readings[j, i])``, and invalid readings must raise what
        :meth:`tree_local` raises. Only called when
        :meth:`tree_partials_additive` returned ``True`` — this is how the
        fused kernels get their partial matrix without a Python object per
        cell.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no array-native tree partials"
        )

    # -- multi-path algorithm ------------------------------------------------

    @abstractmethod
    def synopsis_local(self, node: int, epoch: int, reading: float) -> S:
        """SG: the synopsis of a single node's local reading."""

    def synopsis_local_block(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ) -> List[List[S]]:
        """SG for a whole (level x epoch block) grid.

        Same contract as :meth:`tree_local_block`: cell ``[j][i]`` must
        equal ``synopsis_local(nodes[i], epochs[j], reading_rows[j][i])``.
        Count and Sum override this with a single vectorized FM pass over
        every (node, epoch) cell of the block.
        """
        return [
            [
                self.synopsis_local(node, epoch, reading)
                for node, reading in zip(nodes, row)
            ]
            for epoch, row in zip(epochs, reading_rows)
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
        epochs[i])`` exactly, errors included — the object twin of
        :meth:`convert_block_packed`. The Tributary-Delta engine funnels a
        level's T -> M deliveries through one call; the FM-backed
        aggregates override the default loop with vectorized passes.
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

    @abstractmethod
    def exact(self, readings: Sequence[float]) -> float:
        """The loss-free answer over all sensor readings (for metrics)."""

    def exact_array(self, readings: np.ndarray) -> float:
        """:meth:`exact` over one float64 row of readings.

        Must equal ``exact(readings.tolist())`` exactly, which is also the
        default; aggregates whose truth vectorises (Sum) override it so a
        whole-population truth row costs no Python object per sensor.
        """
        return self.exact(readings.tolist())

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

    def tree_partials_additive(self) -> bool:
        """Whether tree partials are plain integers merged by addition.

        Contract for returning ``True``: every :meth:`tree_local` result is
        an ``int``, :meth:`tree_merge` is integer ``+``,
        :meth:`tree_words` is constant across partials, and
        :meth:`tree_local_matrix` is implemented. The fused kernels
        (:mod:`repro.kernels`) rely on all three to run a whole epoch block
        of tree waves as int64 column adds; aggregates that cannot promise
        this keep the default ``False`` and take the per-payload object
        path unchanged.
        """
        return False

    def synopsis_packable(self) -> Optional[Tuple[int, int]]:
        """The ``(num_bitmaps, bits)`` shape of packable synopses, or None.

        Contract for returning a shape: synopses are plain
        :class:`~repro.multipath.fm.FMSketch` objects of exactly that shape
        with ``bits == 32``, :meth:`synopsis_fuse` is bitwise OR, and
        :meth:`synopsis_words` is the standard packed-RLE sizing — so one
        uint32 matrix row (little-endian bitmap words) is a faithful
        synopsis and the fused kernels may OR and size rows directly.
        ``None`` (the default) keeps the scheme on the object path.
        """
        return None

    def synopsis_local_block_packed(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ):
        """SG for a block as one packed uint32 matrix, epoch-major flat.

        Row ``j * len(nodes) + i`` must be the packed row
        (:func:`repro.multipath.fm.sketch_to_row`) of
        ``synopsis_local_block(...)[j][i]``. Only called when
        :meth:`synopsis_packable` returned a shape.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not pack synopses"
        )

    def convert_block_packed(
        self,
        partials: Sequence[P],
        senders: Sequence[int],
        epochs: Sequence[int],
    ):
        """Batched :meth:`convert` over parallel columns, as packed rows.

        Row ``i`` must be the packed row
        (:func:`repro.multipath.fm.sketch_to_row`) of ``convert(partials[i],
        senders[i], epochs[i])``. Only called when :meth:`synopsis_packable`
        returned a shape: the TD block kernel funnels every boundary
        (T -> M) delivery of a block through one call.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not pack synopses"
        )

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


def zip_blocks(blocks: Sequence[List[List]]) -> List[List[Tuple]]:
    """Per-component blocks -> one block whose cells are component tuples
    (``result[j][i][c] == blocks[c][j][i]``: epoch ``j``, node ``i``)."""
    return [list(zip(*rows)) for rows in zip(*blocks)]
