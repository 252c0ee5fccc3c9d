"""Count: the paper's headline aggregate (Figures 2 and 5).

Tree side: an integer subtree count, merged by addition — exact and one word.
Multi-path side: an FM sketch counting the distinct contributing sensors
(the "bit vector (bv)" of Figure 3); SE reads the PCSA estimate. Conversion:
a subtree count c becomes a sketch of c distinct virtual items keyed by the
sending T vertex, so the multi-path scheme "equates the synopsis with the
value c" exactly as Section 5 prescribes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.base import Aggregate
from repro.multipath.fm import (
    FMSketch,
    counted_matrix,
    single_item_matrix_block,
    single_item_sketches_block,
    words_batch,
)


class CountAggregate(Aggregate[int, FMSketch]):
    """Count of contributing sensors."""

    name = "count"

    def __init__(self, num_bitmaps: int = 40, bits: int = 32) -> None:
        self._num_bitmaps = num_bitmaps
        self._bits = bits

    def _empty_sketch(self) -> FMSketch:
        return FMSketch(self._num_bitmaps, self._bits)

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

    def tree_merge(self, a: int, b: int) -> int:
        return a + b

    def tree_eval(self, partial: int) -> float:
        return float(partial)

    def tree_words(self, partial: int) -> int:
        return 1

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
        sketch.insert_count(partial, "count-conv", sender, epoch)
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
        return single_item_matrix_block(
            self._num_bitmaps, self._bits, ("count",), nodes, epochs
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
            ("count-conv",),
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
        return float(len(readings))

    def exact_array(self, readings: np.ndarray) -> float:
        return float(len(readings))

    def synopsis_counts_contributors(self) -> bool:
        return True

    def supports_group_by(self) -> bool:
        return True
