"""Wire payloads exchanged by the aggregation schemes.

Every message carries, beside the aggregate's partial result, the
(approximate) count of contributing sensors that Section 4.2 requires for
adaptation decisions, plus — for the TD strategy — the max/min
"nodes-not-contributing" statistics of switchable M subtrees.

``contributors`` is a simulator-side ground-truth bitmask (bit i set when
sensor i's reading is accounted for). It is *not* transmitted (a real mote
could not know it); it exists so experiments can report the true
%-contributing alongside the base station's estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Optional, Tuple, TypeVar

from repro.multipath.fm import FMSketch
from repro.network.messages import missing_stats_words
from repro.network.placement import NodeId

P = TypeVar("P")
S = TypeVar("S")

#: A (missing_count, reporting_node) statistic from a switchable M subtree.
MissingStat = Tuple[int, NodeId]


@dataclass
class TreePayload(Generic[P]):
    """A tree partial result with its exact contributing count.

    ``sender`` identifies the T vertex that transmitted the payload; an M
    receiver keys the conversion function by it (Section 5).
    """

    partial: P
    count: int
    contributors: int
    sender: NodeId = -1

    def extra_words(self) -> int:
        """Words beyond the aggregate partial: the piggybacked count."""
        return 1


@dataclass
class MultipathPayload(Generic[S]):
    """A synopsis with contributing-count sketch and TD adaptation fields.

    ``missing_stats`` maps each switchable M node (seen so far on this path)
    to the number of nodes in its subtree that did not contribute. The paper
    maintains the max and min of these values; it also proposes "maintaining
    the top-k values instead of just the top-1" as an adaptivity improvement
    — this payload carries the full statistic set (and its transmission cost
    is charged per entry), from which max, min, or any top-k view derives.
    Dictionary union is duplicate-insensitive: a given node always reports
    the same value within an epoch, whichever paths its report takes.
    """

    synopsis: S
    count_sketch: Optional[FMSketch]
    contributors: int
    missing_stats: Optional[Dict[NodeId, int]] = None

    def extra_words(self) -> int:
        """Words beyond the aggregate synopsis."""
        words = 0
        if self.count_sketch is not None:
            words += self.count_sketch.words()
        if self.missing_stats:
            words += missing_stats_words(len(self.missing_stats))
        return words


def combine_stats(
    a: Optional[Dict[NodeId, int]],
    b: Optional[Dict[NodeId, int]],
) -> Optional[Dict[NodeId, int]]:
    """Duplicate-insensitive union of missing-statistic maps."""
    if not a:
        return dict(b) if b else None
    if not b:
        return dict(a)
    merged = dict(a)
    merged.update(b)
    return merged
