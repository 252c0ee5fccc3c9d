"""Sum: the aggregate of the paper's Section 7.3 experiments.

Tree side: integer subtree sums (readings are rounded to integers — sensor
readings in TinyDB are integral ADC values). Multi-path side: the
Considine et al. [5] construction — a node with value v inserts v distinct
virtual items into an FM sketch, so the sketch's distinct count estimates the
network-wide sum. Conversion inserts the subtree's summed value the same way.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.base import Aggregate
from repro.errors import ConfigurationError
from repro.multipath.fm import (
    FMSketch,
    counted_matrix,
    counted_sketches,
    words_batch,
)


#: First float64 that no longer fits the kernels' int64 partial matrix.
_INT64_LIMIT = float(1 << 63)


class SumAggregate(Aggregate[int, FMSketch]):
    """Sum of non-negative integer sensor readings."""

    name = "sum"

    def __init__(self, num_bitmaps: int = 40, bits: int = 32) -> None:
        self._num_bitmaps = num_bitmaps
        self._bits = bits

    def _empty_sketch(self) -> FMSketch:
        return FMSketch(self._num_bitmaps, self._bits)

    @staticmethod
    def _as_int(reading: float) -> int:
        value = int(round(reading))
        if value < 0:
            raise ConfigurationError(
                "Sum synopses require non-negative readings (got %r)" % reading
            )
        return value

    @staticmethod
    def _as_int_array(readings: np.ndarray) -> np.ndarray:
        """:meth:`_as_int` over a float64 array, as int64.

        ``np.rint`` rounds half to even like ``round()``. A cell the scalar
        path rejects (negative, NaN, inf) is handed to it, so the array path
        fails with the very same exception instead of casting garbage.
        """
        rounded = np.rint(readings)
        valid = (rounded >= 0) & (rounded < _INT64_LIMIT)
        if not valid.all():
            first = float(readings[~valid][0])
            SumAggregate._as_int(first)
            raise OverflowError(f"reading {first!r} does not fit an int64 partial")
        return rounded.astype(np.int64)

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> int:
        return self._as_int(reading)

    def tree_local_matrix(
        self, nodes: Sequence[int], epochs: Sequence[int], readings: np.ndarray
    ) -> np.ndarray:
        return self._as_int_array(readings)

    def tree_merge(self, a: int, b: int) -> int:
        return a + b

    def tree_eval(self, partial: int) -> float:
        return float(partial)

    def tree_words(self, partial: int) -> int:
        return 1

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float) -> FMSketch:
        sketch = self._empty_sketch()
        sketch.insert_count(self._as_int(reading), "sum", node, epoch)
        return sketch

    def synopsis_local_block(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ) -> List[List[FMSketch]]:
        # One vectorized weighted-insert pass over every (node, epoch) cell
        # of the block, flattened epoch-major.
        num = len(nodes)
        if num == 0:
            return [[] for _ in epochs]
        flat = counted_sketches(
            self._num_bitmaps,
            self._bits,
            ("sum",),
            [self._as_int(reading) for row in reading_rows for reading in row],
            list(nodes) * len(epochs),
            [epoch for epoch in epochs for _ in range(num)],
        )
        return [flat[j * num : (j + 1) * num] for j in range(len(epochs))]

    def synopsis_fuse(self, a: FMSketch, b: FMSketch) -> FMSketch:
        return a.fuse(b)

    def synopsis_eval(self, synopsis: FMSketch) -> float:
        return synopsis.estimate()

    def synopsis_words(self, synopsis: FMSketch) -> int:
        return synopsis.words()

    def synopsis_words_batch(self, synopses: Sequence[FMSketch]) -> List[int]:
        return words_batch(synopses)

    # -- neutral elements ----------------------------------------------------

    def tree_empty(self) -> int:
        return 0

    def synopsis_empty(self) -> FMSketch:
        return self._empty_sketch()

    # -- conversion --------------------------------------------------------------

    def convert(self, partial: int, sender: int, epoch: int) -> FMSketch:
        sketch = self._empty_sketch()
        sketch.insert_count(partial, "sum-conv", sender, epoch)
        return sketch

    # -- fused-kernel capabilities -----------------------------------------------

    def tree_partials_additive(self) -> bool:
        return True

    def synopsis_packable(self) -> Optional[Tuple[int, int]]:
        if self._bits != 32:
            return None
        return (self._num_bitmaps, self._bits)

    def synopsis_local_block_packed(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ):
        num = len(nodes)
        return counted_matrix(
            self._num_bitmaps,
            self._bits,
            ("sum",),
            [self._as_int(reading) for row in reading_rows for reading in row],
            list(nodes) * len(epochs),
            [epoch for epoch in epochs for _ in range(num)],
        )

    def convert_block_packed(
        self,
        partials: Sequence[int],
        senders: Sequence[int],
        epochs: Sequence[int],
    ):
        return counted_matrix(
            self._num_bitmaps,
            self._bits,
            ("sum-conv",),
            partials,
            senders,
            epochs,
        )

    # -- mixed evaluation --------------------------------------------------------

    def mixed_eval(self, partials: Sequence[int], fused: FMSketch | None) -> float:
        exact_part = float(sum(partials))
        sketch_part = fused.estimate() if fused is not None else 0.0
        return exact_part + sketch_part

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        return float(sum(self._as_int(reading) for reading in readings))

    def exact_array(self, readings: np.ndarray) -> float:
        return float(int(self._as_int_array(readings).sum()))

    def supports_group_by(self) -> bool:
        return True
