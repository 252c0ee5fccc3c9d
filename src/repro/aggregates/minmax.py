"""Min and Max: aggregates that are natively duplicate-insensitive.

min/max of a multiset does not change if elements are repeated, so the tree
partial and the synopsis are the same scalar and the conversion is the
identity. These aggregates incur zero approximation error in either scheme —
only communication error.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.aggregates.base import Aggregate


class _ExtremeAggregate(Aggregate[float, float]):
    """The reading ``_pick`` (min or max) selects; the neutral element
    ``_neutral`` is the infinity it never selects."""

    _pick: Callable
    _neutral: float

    def tree_local(self, node: int, epoch: int, reading: float) -> float:
        return float(reading)

    def tree_merge(self, a: float, b: float) -> float:
        return self._pick(a, b)

    def tree_eval(self, partial: float) -> float:
        return partial

    def tree_words(self, partial: float) -> int:
        return 1

    def tree_empty(self) -> float:
        return self._neutral

    # The synopsis IS the tree partial: each multi-path op is its tree twin.
    synopsis_local = tree_local
    synopsis_fuse = tree_merge
    synopsis_eval = tree_eval
    synopsis_words = tree_words
    synopsis_empty = tree_empty

    def convert(self, partial: float, sender: int, epoch: int) -> float:
        return partial

    def mixed_eval(self, partials: Sequence[float], fused: float | None) -> float:
        values = list(partials)
        if fused is not None:
            values.append(fused)
        return self._pick(values) if values else 0.0

    def exact(self, readings: Sequence[float]) -> float:
        # No sensor alive: 0.0, what an epoch nothing reached estimates.
        return float(self._pick(readings)) if readings else 0.0

    def supports_group_by(self) -> bool:
        return True


class MinAggregate(_ExtremeAggregate):
    """Minimum reading across contributing sensors."""

    name = "min"
    _pick = staticmethod(min)
    _neutral = float("inf")


class MaxAggregate(_ExtremeAggregate):
    """Maximum reading across contributing sensors."""

    name = "max"
    _pick = staticmethod(max)
    _neutral = float("-inf")
