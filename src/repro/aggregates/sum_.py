"""Sum: the aggregate of the paper's Section 7.3 experiments.

Tree side: integer subtree sums (readings are rounded to integers — sensor
readings in TinyDB are integral ADC values). Multi-path side: the
Considine et al. [5] construction — a node with value v inserts v distinct
virtual items into an FM sketch, so the sketch's distinct count estimates the
network-wide sum. Conversion inserts the subtree's summed value the same way
(shared with Count: :class:`~repro.aggregates.additive.AdditiveFMAggregate`).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.aggregates.additive import AdditiveFMAggregate
from repro.errors import ConfigurationError
from repro.multipath.fm import (
    FMSketch,
    block_columns,
    counted_matrix,
    counted_sketches_block,
)


#: First float64 that no longer fits the kernels' int64 partial matrix.
_INT64_LIMIT = float(1 << 63)


class SumAggregate(AdditiveFMAggregate):
    """Sum of non-negative integer sensor readings."""

    name = "sum"
    _conv_label = "sum-conv"

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
        # of the block.
        return counted_sketches_block(
            self._num_bitmaps,
            self._bits,
            ("sum",),
            [[self._as_int(reading) for reading in row] for row in reading_rows],
            nodes,
            epochs,
        )

    def synopsis_local_block_packed(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ):
        return counted_matrix(
            self._num_bitmaps,
            self._bits,
            ("sum",),
            self._as_int_array(
                np.asarray(reading_rows, dtype=np.float64).reshape(-1)
            ),
            *block_columns(nodes, epochs),
        )

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        return float(sum(self._as_int(reading) for reading in readings))

    def exact_array(self, readings: np.ndarray) -> float:
        return float(int(self._as_int_array(readings).sum()))
