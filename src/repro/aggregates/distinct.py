"""Count-Distinct: how many different values the network observed.

One of Section 5's "many aggregates ... with known efficient multi-path
[16] and tree algorithms and simple conversion functions". Distinct-count
is the aggregate the FM sketch was *born* for [7], and it showcases a
subtlety the scalar aggregates hide: the synopsis is keyed by the **value
itself**, not by (node, epoch), so the same value observed at two distant
sensors sets the same sketch bits — cross-node duplicates collapse by
construction, on trees and multi-path alike.

Tree side: the exact set of distinct (quantized) values in the subtree —
exact but with data-dependent message size, the classic reason holistic
aggregates strain the tree approach. Multi-path side: an FM sketch over
values. Conversion: insert each value of the tree set into a fresh sketch;
because the sketch keys are the values, the conversion composes exactly
with whatever the delta has already seen.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence

from repro.aggregates.base import Aggregate
from repro.errors import ConfigurationError
from repro.multipath.fm import FMSketch

#: A tree partial: the exact set of quantized values seen in the subtree.
ValueSet = FrozenSet[int]


class DistinctCountAggregate(Aggregate[ValueSet, FMSketch]):
    """Number of distinct (quantized) reading values across the network.

    Args:
        precision: readings are quantized to ``round(value * precision)``
            before counting; 1 counts distinct integers.
        num_bitmaps: FM sketch size for the multi-path side.
    """

    name = "distinct"

    def __init__(self, precision: float = 1.0, num_bitmaps: int = 40) -> None:
        if precision <= 0:
            raise ConfigurationError("precision must be positive")
        self._precision = precision
        self._num_bitmaps = num_bitmaps

    def quantize(self, reading: float) -> int:
        """The integer key a reading counts as."""
        return round(float(reading) * self._precision)

    def _empty_sketch(self) -> FMSketch:
        return FMSketch(self._num_bitmaps)

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> ValueSet:
        return frozenset((self.quantize(reading),))

    def tree_merge(self, a: ValueSet, b: ValueSet) -> ValueSet:
        return a | b

    def tree_eval(self, partial: ValueSet) -> float:
        return float(len(partial))

    def tree_words(self, partial: ValueSet) -> int:
        # One word per distinct value plus a length header: the holistic
        # size growth the paper's Table 1 message-size column is about.
        return 1 + len(partial)

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float) -> FMSketch:
        sketch = self._empty_sketch()
        # Keyed by the VALUE: cross-node duplicates must collide.
        sketch.insert("distinct", self.quantize(reading))
        return sketch

    def synopsis_fuse(self, a: FMSketch, b: FMSketch) -> FMSketch:
        return a.fuse(b)

    def synopsis_fuse_many(self, synopses: Sequence[FMSketch]) -> FMSketch:
        return FMSketch.fuse_many(synopses)

    def synopsis_eval(self, synopsis: FMSketch) -> float:
        return synopsis.estimate()

    def synopsis_words(self, synopsis: FMSketch) -> int:
        return synopsis.words()

    # -- neutral elements ----------------------------------------------------

    def tree_empty(self) -> ValueSet:
        return frozenset()

    def synopsis_empty(self) -> FMSketch:
        return self._empty_sketch()

    # -- conversion --------------------------------------------------------------

    def convert(self, partial: ValueSet, sender: int, epoch: int) -> FMSketch:
        """Insert the subtree's values; keys ignore the sender on purpose —
        a value the delta already saw elsewhere must not count twice. (So
        the base ``mixed_eval`` is exact here: tree sets reaching the base
        station are converted and fused, never added.)"""
        sketch = self._empty_sketch()
        for value in partial:
            sketch.insert("distinct", value)
        return sketch

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        return float(len({self.quantize(reading) for reading in readings}))

    def supports_group_by(self) -> bool:
        return True
