"""Filtered aggregation: sensors failing a predicate contribute nothing.

:class:`FilteredAggregate` is the WHERE clause evaluated at the sensor
(:mod:`repro.query` builds it from ``SELECT ... WHERE value > c``); the
spatial region filter (:class:`repro.spatial.RegionFilteredAggregate`) is
the same wrapper over region-tagged readings.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

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

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence) -> float:
        matching = [self._value(r) for r in readings if self._predicate(r)]
        if not matching:
            # What a loss-free network would report: the neutral element
            # (0 for Count/Sum, +/-inf for Min/Max).
            return self._inner.tree_eval(self._inner.tree_empty())
        return self._inner.exact(matching)

    def synopsis_counts_contributors(self) -> bool:
        """Filtered Count counts *matching* sensors, not contributing ones,
        so the contributing-count piggyback must still travel."""
        return False

    def supports_group_by(self) -> bool:
        """A WHERE clause composes with GROUP BY whenever the inner
        aggregate does (the predicate applies per cell)."""
        return self._inner.supports_group_by()
