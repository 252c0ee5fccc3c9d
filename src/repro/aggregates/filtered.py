"""Filtered aggregation: sensors failing a predicate contribute nothing.

:class:`FilteredAggregate` is the WHERE clause evaluated at the sensor
(:mod:`repro.query` builds it from ``SELECT ... WHERE value > c``); the
spatial region filter (:class:`repro.spatial.RegionFilteredAggregate`) is
the same wrapper accepting by the sensor's region instead.
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

    def _accepts(self, node: int, reading) -> bool:
        """Whether sensor ``node``'s ``reading`` passes the clause."""
        return self._predicate(reading)

    def _mask(self, nodes: Sequence[int], readings: np.ndarray) -> np.ndarray:
        """:meth:`_accepts` over a float64 readings array (one row, or an
        ``(epochs, nodes)`` matrix). The WHERE comparators
        (``operator.gt`` and friends) broadcast; any other predicate is
        asked cell by cell."""
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
        return mask.astype(bool, copy=False)

    def _accepted(self, nodes, readings: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The clause's mask over a readings array, and the readings to hand
        the inner aggregate: rejected cells read the first accepted reading,
        so the inner never sees a value the scalar form would not hand it."""
        mask = self._mask(nodes, readings)
        if not mask.any():
            return mask, readings
        return mask, np.where(mask, readings, readings[mask][0])

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading):
        if self._accepts(node, reading):
            return self._inner.tree_local(node, epoch, reading)
        return self._inner.tree_empty()

    def _masked_block(self, side, nodes, epochs, readings):
        """The inner ``<side>_local_block`` where the clause accepts, a
        fresh ``<side>_empty()`` elsewhere: one inner block over
        :meth:`_accepted`'s readings, its rejected cells replaced."""
        empty = getattr(self._inner, side + "_empty")
        mask, accepted = self._accepted(nodes, readings)
        if not mask.any():
            return [[empty() for _ in nodes] for _ in epochs]
        block = getattr(self._inner, side + "_local_block")(nodes, epochs, accepted)
        return [
            [cell if keep else empty() for cell, keep in zip(row, keeps)]
            for row, keeps in zip(block, mask.tolist())
        ]

    def tree_local_block(self, nodes, epochs, readings):
        return self._masked_block("tree", nodes, epochs, readings)

    def tree_merge(self, a, b):
        return self._inner.tree_merge(a, b)

    def tree_eval(self, partial) -> float:
        return self._inner.tree_eval(partial)

    def tree_words(self, partial) -> int:
        return self._inner.tree_words(partial)

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading):
        if self._accepts(node, reading):
            return self._inner.synopsis_local(node, epoch, reading)
        return self._inner.synopsis_empty()

    def synopsis_local_block(self, nodes, epochs, readings):
        return self._masked_block("synopsis", nodes, epochs, readings)

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

    def tree_local_matrix(self, nodes, epochs, readings: np.ndarray) -> np.ndarray:
        mask, accepted = self._accepted(nodes, readings)
        if not mask.any():
            # int64 zeros for an additive inner, +/-inf for an extremum.
            return np.full(readings.shape, self._inner.tree_empty())
        return np.where(
            mask,
            self._inner.tree_local_matrix(nodes, epochs, accepted),
            self._inner.tree_empty(),
        )

    def synopsis_local_block_packed(self, nodes, epochs, readings):
        """The inner's packed rows where the clause accepts, the empty
        synopsis's (all zero words) elsewhere."""
        mask, accepted = self._accepted(nodes, readings)
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
        matching = [r for r in readings if self._predicate(r)]
        if not matching:
            # What a loss-free network would report: the neutral element
            # (0 for Count/Sum, +/-inf for Min/Max).
            return self._inner.tree_eval(self._inner.tree_empty())
        return self._inner.exact(matching)

    def exact_array(self, readings: np.ndarray, nodes: Sequence[int]) -> float:
        """The inner's truth over the accepted cells of a float64 row."""
        mask = self._mask(nodes, readings)
        if not mask.any():
            return self._inner.tree_eval(self._inner.tree_empty())
        return self._inner.exact_array(
            readings[mask], np.compress(mask, nodes).tolist()
        )

    def synopsis_counts_contributors(self) -> bool:
        """Filtered Count counts *matching* sensors, not contributing ones,
        so the contributing-count piggyback must still travel."""
        return False

    def supports_group_by(self) -> bool:
        """A WHERE clause composes with GROUP BY whenever the inner
        aggregate does (the predicate applies per cell)."""
        return self._inner.supports_group_by()
