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

import numpy as np

from repro.aggregates.additive import AdditiveFMAggregate
from repro.multipath.fm import (
    FMSketch,
    single_item_matrix_block,
    single_item_sketches_block,
)


class CountAggregate(AdditiveFMAggregate):
    """Count of contributing sensors."""

    name = "count"
    _conv_label = "count-conv"

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> int:
        return 1

    def tree_local_block(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ) -> List[List[int]]:
        return [[1] * len(nodes) for _ in epochs]

    def tree_local_matrix(
        self, nodes: Sequence[int], epochs: Sequence[int], readings: np.ndarray
    ) -> np.ndarray:
        return np.ones((len(epochs), len(nodes)), dtype=np.int64)

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float) -> FMSketch:
        sketch = self._empty_sketch()
        sketch.insert("count", node, epoch)
        return sketch

    def synopsis_local_block(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ) -> List[List[FMSketch]]:
        return single_item_sketches_block(
            self._num_bitmaps, self._bits, ("count",), nodes, epochs
        )

    def synopsis_local_block_packed(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        reading_rows: Sequence[Sequence[float]],
    ):
        return single_item_matrix_block(
            self._num_bitmaps, self._bits, ("count",), nodes, epochs
        )

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        return float(len(readings))

    def exact_array(self, readings: np.ndarray) -> float:
        return float(len(readings))

    def synopsis_counts_contributors(self) -> bool:
        return True
