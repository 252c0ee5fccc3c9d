"""The payload of a convergence wave: nothing but the adaptation signal.

Section 4.2 adapts the delta from two numbers only — the %-contributing
estimate and the per-subtree "nodes not contributing" counts. Both travel
*beside* the query payload (the contributing-count piggyback sketch, the
exact tree counts), so a warm-up whose answers nobody records needs no
query payload at all. :class:`SignalOnlyAggregate` is that empty payload:
every partial and synopsis is the same zero-word constant, every answer
0.0, and the schemes' piggyback machinery runs around it unchanged.
:meth:`repro.core.td_scheme.TributaryDeltaScheme.signal_only` swaps it in
for the duration of convergence.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate

Carried = Tuple[()]

#: The one partial and the one synopsis. Deliberately not ``None``: a TD
#: base station reads "no synopsis and no tree partial" as "nothing
#: arrived" and reports a zero contributing estimate for the epoch.
CARRIED: Carried = ()


class SignalOnlyAggregate(Aggregate[Carried, Carried]):
    """A constant-valued, zero-word aggregate; readings are never looked at."""

    name = "signal-only"

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: object) -> Carried:
        return CARRIED

    def tree_local_block(self, nodes, epochs, reading_rows) -> List[List[Carried]]:
        return [[CARRIED] * len(nodes) for _ in epochs]

    def tree_merge(self, a: Carried, b: Carried) -> Carried:
        return CARRIED

    def tree_eval(self, partial: Carried) -> float:
        return 0.0

    def tree_words(self, partial: Carried) -> int:
        return 0

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: object) -> Carried:
        return CARRIED

    def synopsis_local_block(
        self, nodes, epochs, reading_rows
    ) -> List[List[Carried]]:
        return [[CARRIED] * len(nodes) for _ in epochs]

    def synopsis_fuse(self, a: Carried, b: Carried) -> Carried:
        return CARRIED

    def synopsis_fuse_many(self, synopses: Sequence[Carried]) -> Carried:
        return CARRIED

    def synopsis_eval(self, synopsis: Carried) -> float:
        return 0.0

    def synopsis_words(self, synopsis: Carried) -> int:
        return 0

    def synopsis_words_batch(self, synopses: Sequence[Carried]) -> List[int]:
        return [0] * len(synopses)

    # -- conversion / evaluation / truth ---------------------------------------

    def convert(self, partial: Carried, sender: int, epoch: int) -> Carried:
        return CARRIED

    def convert_block(self, partials, senders, epochs) -> List[Carried]:
        return [CARRIED] * len(partials)

    def mixed_eval(
        self, partials: Sequence[Carried], fused: Optional[Carried]
    ) -> float:
        return 0.0

    def exact(self, readings: Sequence[object]) -> float:
        return 0.0
