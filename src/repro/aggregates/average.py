"""Average = Sum / Count, composed from the two underlying aggregates.

The tree partial is an exact (sum, count) pair; the synopsis is a pair of FM
sketches. This is the standard composition in both TAG and synopsis
diffusion; the conversion converts each component independently.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.aggregates.base import Aggregate
from repro.aggregates.composite import CompositeAggregate
from repro.aggregates.count import CountAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.multipath.fm import FMSketch

TreePair = Tuple[int, int]
SketchPair = Tuple[FMSketch, FMSketch]


class AverageAggregate(Aggregate[TreePair, SketchPair]):
    """Mean reading across contributing sensors."""

    name = "average"

    def __init__(self, num_bitmaps: int = 40, bits: int = 32) -> None:
        self._sum = SumAggregate(num_bitmaps, bits)
        self._count = CountAggregate(num_bitmaps, bits)
        self._pair = CompositeAggregate([self._sum, self._count])

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> TreePair:
        return (
            self._sum.tree_local(node, epoch, reading),
            self._count.tree_local(node, epoch, reading),
        )

    def tree_merge(self, a: TreePair, b: TreePair) -> TreePair:
        return (a[0] + b[0], a[1] + b[1])

    def tree_eval(self, partial: TreePair) -> float:
        total, count = partial
        return total / count if count else 0.0

    def tree_words(self, partial: TreePair) -> int:
        return 2

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float) -> SketchPair:
        return (
            self._sum.synopsis_local(node, epoch, reading),
            self._count.synopsis_local(node, epoch, reading),
        )

    def synopsis_fuse(self, a: SketchPair, b: SketchPair) -> SketchPair:
        return (a[0].fuse(b[0]), a[1].fuse(b[1]))

    def synopsis_fuse_many(self, synopses: Sequence[SketchPair]) -> SketchPair:
        totals, counts = zip(*synopses)
        return (FMSketch.fuse_many(totals), FMSketch.fuse_many(counts))

    def synopsis_eval(self, synopsis: SketchPair) -> float:
        total = synopsis[0].estimate()
        count = synopsis[1].estimate()
        return total / count if count else 0.0

    def synopsis_words(self, synopsis: SketchPair) -> int:
        return synopsis[0].words() + synopsis[1].words()

    # -- neutral elements ----------------------------------------------------

    def tree_empty(self) -> TreePair:
        return (0, 0)

    def synopsis_empty(self) -> SketchPair:
        return (self._sum.synopsis_empty(), self._count.synopsis_empty())

    # -- conversion --------------------------------------------------------------

    def convert(self, partial: TreePair, sender: int, epoch: int) -> SketchPair:
        return (
            self._sum.convert(partial[0], sender, epoch),
            self._count.convert(partial[1], sender, epoch),
        )

    # -- block forms: component-wise, exactly the composite's ------------------

    def tree_local_block(self, nodes, epochs, reading_rows):
        return self._pair.tree_local_block(nodes, epochs, reading_rows)

    def synopsis_local_block(self, nodes, epochs, reading_rows):
        return self._pair.synopsis_local_block(nodes, epochs, reading_rows)

    def synopsis_words_batch(self, synopses):
        return self._pair.synopsis_words_batch(synopses)

    def convert_block(self, partials, senders, epochs):
        return self._pair.convert_block(partials, senders, epochs)

    # -- mixed evaluation --------------------------------------------------------

    def mixed_eval(
        self, partials: Sequence[TreePair], fused: SketchPair | None
    ) -> float:
        total = float(sum(partial[0] for partial in partials))
        count = float(sum(partial[1] for partial in partials))
        if fused is not None:
            total += fused[0].estimate()
            count += fused[1].estimate()
        return total / count if count else 0.0

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        if not readings:
            return 0.0
        return sum(int(round(r)) for r in readings) / len(readings)

    def supports_group_by(self) -> bool:
        return True
