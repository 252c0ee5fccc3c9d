"""Sum: the aggregate of the paper's Section 7.3 experiments.

Tree side: integer subtree sums (readings are rounded to integers — sensor
readings in TinyDB are integral ADC values). Multi-path side: the
Considine et al. [5] construction — a node with value v inserts v distinct
virtual items into an FM sketch, so the sketch's distinct count estimates the
network-wide sum. Conversion inserts the subtree's summed value the same way
(shared with Count: :class:`~repro.aggregates.additive.AdditiveFMAggregate`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.aggregates.additive import AdditiveFMAggregate
from repro.errors import ConfigurationError
from repro.multipath.fm import FMSketch, block_columns, counted_matrix


#: First float64 that no longer fits the kernels' int64 partial matrix.
_INT64_LIMIT = float(1 << 63)


class SumAggregate(AdditiveFMAggregate):
    """Sum of non-negative integer sensor readings."""

    name = "sum"
    _label = "sum"
    _conv_label = "sum-conv"

    @staticmethod
    def _as_int(reading: float) -> int:
        value = int(round(reading))
        if value < 0:
            raise ConfigurationError(
                "Sum synopses require non-negative readings (got %r)" % reading
            )
        return value

    @classmethod
    def _as_int_array(cls, readings: np.ndarray) -> np.ndarray:
        """:meth:`_as_int` over a float64 array, as int64.

        ``np.rint`` rounds half to even like ``round()``.
        """
        return cls._checked_int64(readings, np.rint(readings))

    @classmethod
    def _checked_int64(cls, readings: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``values`` — the integral float64 twins of ``readings`` — as int64.

        A cell the scalar path rejects (negative, NaN, inf) is handed to this
        class's own :meth:`_as_int`, so the array path fails with the very
        same exception instead of casting garbage.
        """
        valid = (values >= 0) & (values < _INT64_LIMIT)
        if not valid.all():
            first = float(readings[~valid][0])
            cls._as_int(first)
            raise OverflowError(f"reading {first!r} does not fit an int64 partial")
        return values.astype(np.int64)

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
        sketch.insert_count(self._as_int(reading), self._label, node, epoch)
        return sketch

    def synopsis_local_block_packed(
        self, nodes: Sequence[int], epochs: Sequence[int], readings: np.ndarray
    ):
        return counted_matrix(
            self._num_bitmaps,
            (self._label,),
            self._as_int_array(readings.reshape(-1)),
            *block_columns(nodes, epochs),
        )

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        return float(sum(self._as_int(reading) for reading in readings))

    def exact_array(self, readings: np.ndarray, nodes: Sequence[int]) -> float:
        return float(int(self._as_int_array(readings).sum()))
