"""Filtered aggregation: sensors failing a predicate contribute nothing.

:class:`FilteredAggregate` is the WHERE clause evaluated at the sensor
(:mod:`repro.query` builds it from ``SELECT ... WHERE value > c``); the
spatial region filter (:class:`repro.spatial.RegionFilteredAggregate`) is
the same wrapper over region-tagged readings.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.base import Aggregate
from repro.errors import ConfigurationError


def require_neutral(inner: Aggregate, what: str) -> None:
    """Refuse an aggregate without neutral elements, naming the clause
    (WHERE, GROUP BY, region filtering) that needs them."""
    try:
        inner.tree_empty()
        inner.synopsis_empty()
    except NotImplementedError:
        raise ConfigurationError(
            f"{what} requires an aggregate with neutral elements; "
            f"{inner.name!r} has none"
        ) from None


class FilteredAggregate(Aggregate):
    """WHERE-clause wrapper: non-matching sensors contribute nothing.

    The wrapped aggregate must implement ``tree_empty``/``synopsis_empty``
    (all built-in aggregates do). Filtered nodes still relay traffic and
    still register in the contributing-count piggyback, so adaptation
    feedback remains about network health, not query selectivity.
    """

    #: The clause named when the inner aggregate has no neutral elements.
    _clause = "WHERE"

    def __init__(self, inner: Aggregate, predicate: Callable[..., bool]) -> None:
        require_neutral(inner, self._clause)
        self._inner = inner
        self._predicate = predicate
        self.name = f"{inner.name}[filtered]"

    @property
    def inner(self) -> Aggregate:
        return self._inner

    def _value(self, reading):
        """What the inner aggregate reads of an accepted reading."""
        return reading

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading):
        if self._predicate(reading):
            return self._inner.tree_local(node, epoch, self._value(reading))
        return self._inner.tree_empty()

    def _masked_block(self, side, nodes, epochs, reading_rows):
        """The inner ``<side>_local_block`` over the cells the predicate
        accepts, ``<side>_empty()`` elsewhere: each epoch row hands the inner
        block form its matching nodes only, so a rejected reading never
        reaches the inner aggregate."""
        local_block = getattr(self._inner, side + "_local_block")
        empty = getattr(self._inner, side + "_empty")
        block = []
        for epoch, row in zip(epochs, reading_rows):
            mask = [self._predicate(reading) for reading in row]
            keep = [i for i, accepted in enumerate(mask) if accepted]
            (kept,) = local_block(
                [nodes[i] for i in keep],
                [epoch],
                [[self._value(row[i]) for i in keep]],
            )
            cells = iter(kept)
            block.append([next(cells) if accepted else empty() for accepted in mask])
        return block

    def tree_local_block(self, nodes, epochs, reading_rows):
        return self._masked_block("tree", nodes, epochs, reading_rows)

    def tree_merge(self, a, b):
        return self._inner.tree_merge(a, b)

    def tree_eval(self, partial) -> float:
        return self._inner.tree_eval(partial)

    def tree_words(self, partial) -> int:
        return self._inner.tree_words(partial)

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading):
        if self._predicate(reading):
            return self._inner.synopsis_local(node, epoch, self._value(reading))
        return self._inner.synopsis_empty()

    def synopsis_local_block(self, nodes, epochs, reading_rows):
        return self._masked_block("synopsis", nodes, epochs, reading_rows)

    def synopsis_fuse(self, a, b):
        return self._inner.synopsis_fuse(a, b)

    def synopsis_fuse_many(self, synopses):
        return self._inner.synopsis_fuse_many(synopses)

    def synopsis_eval(self, synopsis) -> float:
        return self._inner.synopsis_eval(synopsis)

    def synopsis_words(self, synopsis) -> int:
        return self._inner.synopsis_words(synopsis)

    def synopsis_words_batch(self, synopses) -> List[int]:
        return self._inner.synopsis_words_batch(synopses)

    # -- neutral elements / conversion ----------------------------------------

    def tree_empty(self):
        return self._inner.tree_empty()

    def synopsis_empty(self):
        return self._inner.synopsis_empty()

    def convert(self, partial, sender: int, epoch: int):
        return self._inner.convert(partial, sender, epoch)

    def convert_block(self, partials, senders, epochs):
        return self._inner.convert_block(partials, senders, epochs)

    def mixed_eval(self, partials, fused) -> float:
        return self._inner.mixed_eval(partials, fused)

    # -- fused-kernel forms: the inner's, through one predicate mask -----------

    def leaf_slots(self) -> List[Tuple[Aggregate, Optional[int]]]:
        """The inner's leaves, each under this WHERE clause (a filtered
        Average is a filtered Sum beside a filtered Count)."""
        leaves = self._inner.leaf_slots()
        if [leaf for leaf, _ in leaves] == [self._inner]:
            return [(self, None)]
        return [(self._over(leaf), column) for leaf, column in leaves]

    def _over(self, inner: Aggregate) -> "FilteredAggregate":
        """This same clause over another inner aggregate."""
        filtered = copy.copy(self)
        filtered._inner = inner
        return filtered

    def from_leaves(self, values: Iterator):
        return self._inner.from_leaves(values)

    def tree_partials_additive(self) -> bool:
        return self._inner.tree_partials_additive()

    def synopsis_packable(self) -> Optional[int]:
        return self._inner.synopsis_packable()

    def extremum_ufunc(self) -> Optional[np.ufunc]:
        return self._inner.extremum_ufunc()

    def _accepted(self, readings: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The predicate over a float64 readings array, and the readings to
        hand the inner aggregate: rejected cells read the first accepted
        reading, so the inner never sees a value the object path would not
        hand it. The WHERE comparators (``operator.gt`` and friends)
        broadcast; any other predicate is asked cell by cell."""
        try:
            mask = self._predicate(readings)
        except (TypeError, ValueError):
            mask = None
        if not (isinstance(mask, np.ndarray) and mask.shape == readings.shape):
            mask = np.fromiter(
                map(self._predicate, readings.ravel().tolist()),
                dtype=bool,
                count=readings.size,
            ).reshape(readings.shape)
        mask = mask.astype(bool, copy=False)
        if not mask.any():
            return mask, readings
        return mask, np.where(mask, readings, readings[mask][0])

    def tree_local_matrix(self, nodes, epochs, readings: np.ndarray) -> np.ndarray:
        mask, accepted = self._accepted(readings)
        if not mask.any():
            # int64 zeros for an additive inner, +/-inf for an extremum.
            return np.full(readings.shape, self._inner.tree_empty())
        return np.where(
            mask,
            self._inner.tree_local_matrix(nodes, epochs, accepted),
            self._inner.tree_empty(),
        )

    def synopsis_local_block_packed(self, nodes, epochs, reading_rows):
        """The inner's packed rows where the predicate holds, the empty
        synopsis's (all zero words) elsewhere."""
        readings = np.asarray(reading_rows, dtype=np.float64).reshape(
            len(epochs), len(nodes)
        )
        mask, accepted = self._accepted(readings)
        if not mask.any():
            return np.zeros(
                (readings.size, self._inner.synopsis_packable()), dtype="<u4"
            )
        rows = np.array(
            self._inner.synopsis_local_block_packed(nodes, epochs, accepted)
        )
        rows[~mask.reshape(-1)] = 0
        return rows

    def convert_block_packed(self, partials, senders, epochs):
        return self._inner.convert_block_packed(partials, senders, epochs)

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence) -> float:
        matching = [self._value(r) for r in readings if self._predicate(r)]
        if not matching:
            # What a loss-free network would report: the neutral element
            # (0 for Count/Sum, +/-inf for Min/Max).
            return self._inner.tree_eval(self._inner.tree_empty())
        return self._inner.exact(matching)

    def exact_array(self, readings: np.ndarray) -> float:
        """:meth:`exact` over a float64 row: the matching cells, masked."""
        mask, _ = self._accepted(readings)
        if not mask.any():
            return self._inner.tree_eval(self._inner.tree_empty())
        return self._inner.exact_array(readings[mask])

    def synopsis_counts_contributors(self) -> bool:
        """Filtered Count counts *matching* sensors, not contributing ones,
        so the contributing-count piggyback must still travel."""
        return False

    def supports_group_by(self) -> bool:
        """A WHERE clause composes with GROUP BY whenever the inner
        aggregate does (the predicate applies per cell)."""
        return self._inner.supports_group_by()
