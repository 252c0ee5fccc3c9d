"""Count: the paper's headline aggregate (Figures 2 and 5).

Tree side: an integer subtree count, merged by addition — exact and one word.
Multi-path side: an FM sketch counting the distinct contributing sensors
(the "bit vector (bv)" of Figure 3); SE reads the PCSA estimate. Conversion:
a subtree count c becomes a sketch of c distinct virtual items keyed by the
sending T vertex, so the multi-path scheme "equates the synopsis with the
value c" exactly as Section 5 prescribes (shared with Sum:
:class:`~repro.aggregates.additive.AdditiveFMAggregate`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.aggregates.additive import AdditiveFMAggregate
from repro.aggregates.base import FMColumn
from repro.multipath.fm import FMSketch


class CountAggregate(AdditiveFMAggregate):
    """Count of contributing sensors."""

    name = "count"
    _label = "count"
    _conv_label = "count-conv"

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> int:
        return 1

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float) -> FMSketch:
        sketch = self._empty_sketch()
        sketch.insert(self._label, node, epoch)
        return sketch

    def column(self) -> FMColumn:
        """A sensor inserts one unkeyed item, whatever it reads."""
        return FMColumn(self._num_bitmaps, self._label, self._conv_label)

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        return float(len(readings))

    def exact_reduce(self, readings, nodes, mask) -> List[float]:
        if mask is None:
            return [float(readings.shape[1])] * len(readings)
        return [float(kept) for kept in mask.sum(axis=1).tolist()]

    def synopsis_counts_contributors(self) -> bool:
        return True


class ContributingCount(CountAggregate):
    """The Section 4.2 piggyback: the count of contributing sensors.

    Every message carries it beside the query payload — exact on tree links
    (:class:`~repro.core.payloads.TreePayload`'s ``count``), this Count's
    synopsis on multi-path links, and this Count's conversion where a tree
    count meets the delta — and Tributary-Delta adapts on it alone. Its
    synopsis counts its own contributors, so it rides as the only payload
    of a convergence wave too. A query whose synopsis already counts its
    contributors (plain Count) carries no piggyback.
    """

    name = "contributing"
    _label = "contrib"
    _conv_label = "contrib-conv"
