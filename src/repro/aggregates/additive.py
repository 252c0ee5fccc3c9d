"""What Count and Sum share: exact integer partials, one FM sketch.

Tree side: an integer merged by addition — exact and one word. Multi-path
side: a single :class:`~repro.multipath.fm.FMSketch` fused by OR and read
with the PCSA estimator. Conversion (Section 5): a partial ``c`` becomes a
sketch of ``c`` distinct virtual items keyed by the sending T vertex, so the
multi-path scheme "equates the synopsis with the value c". Subclasses supply
the local ops, the truth and their conversion key label.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate
from repro.multipath.fm import (
    FMSketch,
    counted_matrix,
    counted_sketches,
    words_batch,
)


class AdditiveFMAggregate(Aggregate[int, FMSketch]):
    """Integer partials merged by ``+``, FM synopses merged by OR."""

    #: Key label of the conversion's virtual items ("sum-conv", ...).
    _conv_label: str

    def __init__(self, num_bitmaps: int = 40, bits: int = 32) -> None:
        self._num_bitmaps = num_bitmaps
        self._bits = bits

    def _empty_sketch(self) -> FMSketch:
        return FMSketch(self._num_bitmaps, self._bits)

    # -- tree ------------------------------------------------------------

    def tree_merge(self, a: int, b: int) -> int:
        return a + b

    def tree_eval(self, partial: int) -> float:
        return float(partial)

    def tree_words(self, partial: int) -> int:
        return 1

    # -- multi-path ----------------------------------------------------------

    def synopsis_fuse(self, a: FMSketch, b: FMSketch) -> FMSketch:
        return a.fuse(b)

    def synopsis_fuse_many(self, synopses: Sequence[FMSketch]) -> FMSketch:
        return FMSketch.fuse_many(synopses)

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
        sketch.insert_count(partial, self._conv_label, sender, epoch)
        return sketch

    def convert_block(self, partials, senders, epochs) -> List[FMSketch]:
        return counted_sketches(
            self._num_bitmaps, self._bits, (self._conv_label,), partials, senders, epochs
        )

    # -- fused-kernel capabilities -----------------------------------------------

    def tree_partials_additive(self) -> bool:
        return True

    def synopsis_packable(self) -> Optional[Tuple[int, int]]:
        if self._bits != 32:
            return None
        return (self._num_bitmaps, self._bits)

    def convert_block_packed(
        self,
        partials: Sequence[int],
        senders: Sequence[int],
        epochs: Sequence[int],
    ):
        return counted_matrix(
            self._num_bitmaps, self._bits, (self._conv_label,), partials, senders, epochs
        )

    # -- mixed evaluation --------------------------------------------------------

    def mixed_eval(self, partials: Sequence[int], fused: FMSketch | None) -> float:
        exact_part = float(sum(partials))
        sketch_part = fused.estimate() if fused is not None else 0.0
        return exact_part + sketch_part

    def supports_group_by(self) -> bool:
        return True
