"""Min and Max: aggregates that are natively duplicate-insensitive.

min/max of a multiset does not change if elements are repeated, so the tree
partial and the synopsis are the same scalar and the conversion is the
identity. These aggregates incur zero approximation error in either scheme —
only communication error.

A fold of them must not depend on its order — the fused kernels reduce a
level's deliveries in scatter order — so a local value is never ``-0.0``
(it reads as ``0.0``) and a NaN reading is refused, naming its node and
epoch.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.aggregates.base import Aggregate, ExtremumColumn
from repro.errors import ConfigurationError


class _ExtremeAggregate(Aggregate[float, float]):
    """The reading ``_pick`` (min or max) selects; the neutral element
    ``_neutral`` is the infinity it never selects, and ``_ufunc`` is
    ``_pick`` over arrays."""

    _pick: Callable
    _neutral: float
    _ufunc: np.ufunc

    def tree_local(self, node: int, epoch: int, reading: float) -> float:
        value = float(reading)
        if value != value:
            raise ConfigurationError(
                f"{self.name} got a NaN reading at node {node}, epoch {epoch}"
            )
        # -0.0 + 0.0 is 0.0: the two zeros fold alike in either order.
        return value + 0.0

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
        return float(self._pick(readings)) + 0.0 if readings else 0.0

    def exact_reduce(self, readings, nodes, mask) -> Optional[List[float]]:
        """One ufunc reduction per epoch where no kept reading is NaN."""
        if mask is not None:
            readings = np.where(mask, readings, self._neutral)
        if np.isnan(readings).any():
            return None
        values = self._ufunc.reduce(readings, axis=1, initial=self._neutral)
        kept = readings.shape[1] > 0 if mask is None else mask.any(axis=1)
        # A row without a reading answers 0.0, as exact() of no readings.
        return np.where(kept, values + 0.0, 0.0).tolist()

    def supports_group_by(self) -> bool:
        return True

    def column(self) -> ExtremumColumn:
        return ExtremumColumn(self._ufunc, self._neutral)


class MinAggregate(_ExtremeAggregate):
    """Minimum reading across contributing sensors."""

    name = "min"
    _pick = staticmethod(min)
    _neutral = float("inf")
    _ufunc = np.minimum


class MaxAggregate(_ExtremeAggregate):
    """Maximum reading across contributing sensors."""

    name = "max"
    _pick = staticmethod(max)
    _neutral = float("-inf")
    _ufunc = np.maximum
