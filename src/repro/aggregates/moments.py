"""Statistical moments: mean, second moment, variance, standard deviation.

Section 5 lists "Statistical moments" among the aggregates the framework
computes (there via the uniform sample; :mod:`repro.aggregates.sample`
implements that route). This module provides the *direct* sketch route,
which is cheaper and more accurate when only low moments are needed: the
tree carries the exact triple (n, sum x, sum x^2); the multi-path side
carries three FM sketches (count, sum, and sum-of-squares via weighted
insertion). Each slot is a Count or Sum under its own key labels, so the
composite merges, fuses and converts the triple slot by slot.

Readings are truncated to non-negative integers for the sum sketches,
like :class:`~repro.aggregates.sum_.SumAggregate` (FM counts distinct
virtual items, so weights must be non-negative integers); scale readings
beforehand if sub-integer resolution matters.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.composite import CompositeAggregate
from repro.aggregates.count import CountAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.errors import ConfigurationError
from repro.multipath.fm import FMSketch

#: Exact tree partial: (n, sum, sum of squares).
MomentTriple = Tuple[int, int, int]

#: Multi-path synopsis: (count, sum, sum-of-squares) sketches.
SketchTriple = Tuple[FMSketch, FMSketch, FMSketch]

#: Largest truncated reading whose square fits an int64 partial.
_SQUARE_LIMIT = 3_037_000_499


def _as_int(reading: float) -> int:
    value = int(reading)
    if value < 0:
        raise ConfigurationError(
            "moment sketches need non-negative readings; shift the data"
        )
    return value


class _MomentCount(CountAggregate):
    """The n slot: Count under the moments' key labels."""

    _label = "mom-n"
    _conv_label = "mom-n-conv"


class _MomentSum(SumAggregate):
    """The sum slot: Sum over truncated (not rounded) readings."""

    _label = "mom-sum"
    _conv_label = "mom-sum-conv"

    @staticmethod
    def _as_int(reading: float) -> int:
        return _as_int(reading)

    @classmethod
    def _as_int_array(cls, readings: np.ndarray) -> np.ndarray:
        """:meth:`_as_int` over an array: ``np.trunc`` is ``int()``."""
        return cls._checked_int64(readings, np.trunc(readings))


class _MomentSquares(_MomentSum):
    """The sum-of-squares slot: each truncated reading, squared."""

    _label = "mom-sq"
    _conv_label = "mom-sq-conv"

    @staticmethod
    def _as_int(reading: float) -> int:
        value = _as_int(reading)
        return value * value

    @classmethod
    def _as_int_array(cls, readings: np.ndarray) -> np.ndarray:
        """:meth:`_as_int` over an array: truncate, check, square in int64."""
        values = super()._as_int_array(readings)
        if (values > _SQUARE_LIMIT).any():
            first = float(readings[values > _SQUARE_LIMIT][0])
            raise OverflowError(
                f"reading {first!r} squared does not fit an int64 partial"
            )
        return values * values


class MomentsAggregate(CompositeAggregate):
    """First and second raw moments (hence variance) over the network.

    A (count, sum, sum-of-squares) composite: the slots merge, fuse, size
    and convert themselves. ``tree_eval``/``synopsis_eval`` return the
    **variance** (the scalar the scheme interfaces report); read the mean
    and raw moments off an evaluation with :meth:`statistics`.
    """

    def __init__(self, num_bitmaps: int = 40) -> None:
        super().__init__(
            [
                _MomentCount(num_bitmaps),
                _MomentSum(num_bitmaps),
                _MomentSquares(num_bitmaps),
            ]
        )
        self.name = "moments"

    @staticmethod
    def _variance(n: float, total: float, squares: float) -> float:
        if n <= 0:
            return 0.0
        mean = total / n
        return max(0.0, squares / n - mean * mean)

    def tree_eval(self, partial: MomentTriple) -> float:
        return self._variance(*partial)

    def synopsis_eval(self, synopsis: SketchTriple) -> float:
        return self._variance(*(sketch.estimate() for sketch in synopsis))

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
            n, total, squares = (sketch.estimate() for sketch in synopsis)
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
