"""Average = Sum / Count, composed from the two underlying aggregates.

The tree partial is an exact (sum, count) pair; the synopsis is a pair of FM
sketches. This is the standard composition in both TAG and synopsis
diffusion: the composite merges, fuses, sizes and converts each component
independently, and only the evaluation — the ratio — is Average's own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.composite import CompositeAggregate
from repro.aggregates.count import CountAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.multipath.fm import FMSketch

TreePair = Tuple[int, int]
SketchPair = Tuple[FMSketch, FMSketch]


def _ratio(total: float, count: float) -> float:
    return total / count if count else 0.0


class AverageAggregate(CompositeAggregate):
    """Mean reading across contributing sensors: a (Sum, Count) composite."""

    def __init__(self, num_bitmaps: int = 40) -> None:
        super().__init__([SumAggregate(num_bitmaps), CountAggregate(num_bitmaps)])
        self.name = "average"

    def tree_eval(self, partial: TreePair) -> float:
        return _ratio(*partial)

    def synopsis_eval(self, synopsis: SketchPair) -> float:
        return _ratio(synopsis[0].estimate(), synopsis[1].estimate())

    def mixed_eval(
        self, partials: Sequence[TreePair], fused: Optional[SketchPair]
    ) -> float:
        """Tree pairs that reached the base station add exactly; the delta's
        sketches add their estimates."""
        total = float(sum(partial[0] for partial in partials))
        count = float(sum(partial[1] for partial in partials))
        if fused is not None:
            total += fused[0].estimate()
            count += fused[1].estimate()
        return _ratio(total, count)

    def exact(self, readings: Sequence[float]) -> float:
        if not readings:
            return 0.0
        return sum(int(round(r)) for r in readings) / len(readings)

    def exact_reduce(self, readings, nodes, mask) -> Optional[List[float]]:
        """One int64 row sum of the rounded readings per epoch, divided as
        Python ints — where no kept value is NaN, infinite or so large that
        a row's sum could overflow."""
        rounded = np.rint(readings)
        if mask is not None:
            rounded = np.where(mask, rounded, 0.0)
        if not (np.abs(rounded) < float(1 << 63) / max(1, readings.shape[1])).all():
            return None
        totals = rounded.astype(np.int64).sum(axis=1).tolist()
        counts = (
            [readings.shape[1]] * len(totals)
            if mask is None
            else mask.sum(axis=1).tolist()
        )
        return [
            total / count if count else 0.0 for total, count in zip(totals, counts)
        ]

    def supports_group_by(self) -> bool:
        return True
