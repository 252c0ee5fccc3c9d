"""Statistical moments: mean, second moment, variance, standard deviation.

Section 5 lists "Statistical moments" among the aggregates the framework
computes (there via the uniform sample; :mod:`repro.aggregates.sample`
implements that route). This module provides the *direct* sketch route,
which is cheaper and more accurate when only low moments are needed: the
tree carries the exact triple (n, sum x, sum x^2); the multi-path side
carries three FM sketches (count, sum, and sum-of-squares via weighted
insertion); the conversion function bulk-inserts the tree triple.

Readings are truncated to non-negative integers for the sum sketches,
like :class:`~repro.aggregates.sum_.SumAggregate` (FM counts distinct
virtual items, so weights must be non-negative integers); scale readings
beforehand if sub-integer resolution matters.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate, zip_blocks
from repro.errors import ConfigurationError
from repro.multipath.fm import (
    FMSketch,
    counted_sketches,
    counted_sketches_block,
    single_item_sketches_block,
    words_batch,
)

#: Exact tree partial: (n, sum, sum of squares).
MomentTriple = Tuple[int, int, int]

#: Multi-path synopsis: (count, sum, sum-of-squares) sketches.
SketchTriple = Tuple[FMSketch, FMSketch, FMSketch]


def _as_int(reading: float) -> int:
    value = int(reading)
    if value < 0:
        raise ConfigurationError(
            "moment sketches need non-negative readings; shift the data"
        )
    return value


class MomentsAggregate(Aggregate[MomentTriple, SketchTriple]):
    """First and second raw moments (hence variance) over the network.

    ``tree_eval``/``synopsis_eval`` return the **variance** (the scalar the
    scheme interfaces report); read the mean and raw moments off an
    evaluation with :meth:`statistics`.
    """

    name = "moments"

    def __init__(self, num_bitmaps: int = 40, bits: int = 32) -> None:
        self._num_bitmaps = num_bitmaps
        self._bits = bits

    def _empty_sketch(self) -> FMSketch:
        return FMSketch(self._num_bitmaps, self._bits)

    @staticmethod
    def _variance(n: float, total: float, squares: float) -> float:
        if n <= 0:
            return 0.0
        mean = total / n
        return max(0.0, squares / n - mean * mean)

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> MomentTriple:
        value = _as_int(reading)
        return (1, value, value * value)

    def tree_local_block(
        self, nodes, epochs, reading_rows
    ) -> List[List[MomentTriple]]:
        return [
            [(1, value, value * value) for value in map(_as_int, row)]
            for row in reading_rows
        ]

    def tree_merge(self, a: MomentTriple, b: MomentTriple) -> MomentTriple:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def tree_eval(self, partial: MomentTriple) -> float:
        return self._variance(*partial)

    def tree_words(self, partial: MomentTriple) -> int:
        return 3

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float) -> SketchTriple:
        value = _as_int(reading)
        count = self._empty_sketch()
        total = self._empty_sketch()
        squares = self._empty_sketch()
        count.insert("mom-n", node, epoch)
        total.insert_count(value, "mom-sum", node, epoch)
        squares.insert_count(value * value, "mom-sq", node, epoch)
        return (count, total, squares)

    def synopsis_local_block(
        self, nodes, epochs, reading_rows
    ) -> List[List[SketchTriple]]:
        shape = (self._num_bitmaps, self._bits)
        values = [[_as_int(reading) for reading in row] for row in reading_rows]
        squares = [[value * value for value in row] for row in values]
        return zip_blocks(
            [
                single_item_sketches_block(*shape, ("mom-n",), nodes, epochs),
                counted_sketches_block(*shape, ("mom-sum",), values, nodes, epochs),
                counted_sketches_block(*shape, ("mom-sq",), squares, nodes, epochs),
            ]
        )

    def synopsis_fuse(self, a: SketchTriple, b: SketchTriple) -> SketchTriple:
        return (a[0].fuse(b[0]), a[1].fuse(b[1]), a[2].fuse(b[2]))

    def synopsis_fuse_many(self, synopses: Sequence[SketchTriple]) -> SketchTriple:
        return tuple(FMSketch.fuse_many(slot) for slot in zip(*synopses))

    def synopsis_eval(self, synopsis: SketchTriple) -> float:
        return self._variance(
            synopsis[0].estimate(),
            synopsis[1].estimate(),
            synopsis[2].estimate(),
        )

    def synopsis_words(self, synopsis: SketchTriple) -> int:
        return sum(sketch.words() for sketch in synopsis)

    def synopsis_words_batch(self, synopses: Sequence[SketchTriple]) -> List[int]:
        words = words_batch([sketch for triple in synopses for sketch in triple])
        return [sum(words[i : i + 3]) for i in range(0, len(words), 3)]

    # -- neutral elements ----------------------------------------------------

    def tree_empty(self) -> MomentTriple:
        return (0, 0, 0)

    def synopsis_empty(self) -> SketchTriple:
        return (self._empty_sketch(), self._empty_sketch(), self._empty_sketch())

    # -- conversion --------------------------------------------------------------

    def convert(self, partial: MomentTriple, sender: int, epoch: int) -> SketchTriple:
        n, total, squares = partial
        count = self._empty_sketch()
        total_sketch = self._empty_sketch()
        squares_sketch = self._empty_sketch()
        count.insert_count(n, "mom-n-conv", sender, epoch)
        total_sketch.insert_count(total, "mom-sum-conv", sender, epoch)
        squares_sketch.insert_count(squares, "mom-sq-conv", sender, epoch)
        return (count, total_sketch, squares_sketch)

    def convert_block(self, partials, senders, epochs) -> List[SketchTriple]:
        labels = ("mom-n-conv", "mom-sum-conv", "mom-sq-conv")
        columns = [
            counted_sketches(
                self._num_bitmaps,
                self._bits,
                (label,),
                [partial[slot] for partial in partials],
                senders,
                epochs,
            )
            for slot, label in enumerate(labels)
        ]
        return list(zip(*columns))

    # -- mixed evaluation --------------------------------------------------------

    def mixed_eval(
        self, partials: Sequence[MomentTriple], fused: Optional[SketchTriple]
    ) -> float:
        n = float(sum(p[0] for p in partials))
        total = float(sum(p[1] for p in partials))
        squares = float(sum(p[2] for p in partials))
        if fused is not None:
            n += fused[0].estimate()
            total += fused[1].estimate()
            squares += fused[2].estimate()
        self._last_components = (n, total, squares)
        return self._variance(n, total, squares)

    # -- statistics readout ---------------------------------------------------

    def statistics(
        self, partial: Optional[MomentTriple] = None, synopsis: Optional[SketchTriple] = None
    ) -> dict:
        """Mean / second moment / variance / std from either representation."""
        if (partial is None) == (synopsis is None):
            raise ConfigurationError("pass exactly one of partial / synopsis")
        if partial is not None:
            n, total, squares = (float(x) for x in partial)
        else:
            n = synopsis[0].estimate()
            total = synopsis[1].estimate()
            squares = synopsis[2].estimate()
        variance = self._variance(n, total, squares)
        mean = total / n if n else 0.0
        return {
            "n": n,
            "mean": mean,
            "second_moment": squares / n if n else 0.0,
            "variance": variance,
            "std": variance**0.5,
        }

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        values = [_as_int(reading) for reading in readings]
        n = len(values)
        return self._variance(
            float(n), float(sum(values)), float(sum(v * v for v in values))
        )
