"""Average = Sum / Count, composed from the two underlying aggregates.

The tree partial is an exact (sum, count) pair; the synopsis is a pair of FM
sketches. This is the standard composition in both TAG and synopsis
diffusion: the composite merges, fuses, sizes and converts each component
independently, and only the evaluation — the ratio — is Average's own.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

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

    def supports_group_by(self) -> bool:
        return True
