"""The query planner: fold admitted queries into one shared workload.

Clients think in queries; the wire thinks in **parts**. A part is a
canonical single-target continuous query (its ``render()`` string is the
identity), and the planner's job is threefold:

* **decompose** — an ``avg`` query is exactly its ``sum`` part divided by
  its ``count`` part (:class:`~repro.aggregates.average.AverageAggregate`
  is literally a ``(SumAggregate, CountAggregate)`` pair with the same
  sketch parameters, so the decomposition is bit-identical, not an
  approximation); every other query is its own single part.
* **share** — parts are refcounted by canonical key, so two clients
  subscribing ``avg`` and ``sum`` over the same stream share one ``sum``
  piggyback slot; a second identical subscription adds *zero* new payload.
  Shared words are counted once in admission and billed once on the wire.
* **apply** — at block boundaries the engine asks the planner to sync the
  slot table into the live :class:`~repro.aggregates.workload.
  WorkloadAggregate` / ``WorkloadReadings`` pair: new slots are built over
  the server's reading source and appended; slots whose last subscriber
  left are removed. Mutations never happen mid-block, which is what keeps
  surviving queries' bytes untouched (delivery draws are payload-
  independent and per-slot state is per-slot).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aggregates.workload import WorkloadAggregate, WorkloadReadings
from repro.errors import ConfigurationError
from repro.query import ContinuousQuery, parse_query, spec_query

#: Combiner tags: how a planned query's answer is assembled from its parts.
COMBINE_VALUE = "value"  # one part; its answer is the answer
COMBINE_RATIO = "ratio"  # parts (sum, count); answer = sum/count (0 if 0)


def decompose(spec) -> Tuple[Tuple[ContinuousQuery, ...], str]:
    """A spec's parts and combiner: ``avg`` splits into (sum, count).

    Parts are keyed by their rendered query, so ``{"aggregate": "sum"}``
    and ``{"query": "select sum"}`` share a slot (:func:`spec_query`).
    """
    parsed = spec_query(spec)
    if parsed.select == "avg":
        return (
            (
                dataclasses.replace(parsed, select="sum"),
                dataclasses.replace(parsed, select="count"),
            ),
            COMBINE_RATIO,
        )
    return (parsed,), COMBINE_VALUE


def combine(tag: str, values: Sequence[float]) -> float:
    """Assemble a planned query's answer from its parts' answers."""
    if tag == COMBINE_RATIO:
        total, count = values
        return total / count if count else 0.0
    return values[0]


@dataclass(frozen=True)
class PlannedQuery:
    """One client query, planned: its public name, parts and combiner."""

    name: str
    keys: Tuple[str, ...]
    combiner: str

    def answer(self, by_key: Dict[str, float]) -> float:
        return combine(self.combiner, [by_key[key] for key in self.keys])


@dataclass
class Slot:
    """One refcounted piggyback slot of the running workload."""

    key: str
    query: ContinuousQuery
    words: int = 0  # admission's per-message estimate
    refs: int = 0
    attached: bool = False  # currently a slot of the live workload


class QueryPlanner:
    """Refcounted slot table between subscriptions and the live workload.

    Not internally locked: the engine serializes all calls under its own
    lock (plan/acquire/release from HTTP workers and apply from the block
    loop must see one consistent table).
    """

    def __init__(self, source, deployment=None) -> None:
        self._source = source
        #: Node positions for grouped (GROUP BY) parts; slots without a
        #: GROUP BY clause never touch it, so ``None`` stays valid for
        #: servers built before the spatial layer existed.
        self._deployment = deployment
        self._slots: Dict[str, Slot] = {}
        #: Times an acquire landed on an already-referenced slot — the
        #: subexpression-sharing win, surfaced on ``GET /stats``.
        self.shared_acquires = 0

    # -- planning ----------------------------------------------------------

    def plan(self, specs: Sequence[object]) -> List[PlannedQuery]:
        """Decompose specs into planned queries (no state change)."""
        planned = []
        for spec in specs:
            parts, combiner = decompose(spec)
            planned.append(
                PlannedQuery(
                    name=spec.name,
                    keys=tuple(part.render() for part in parts),
                    combiner=combiner,
                )
            )
        return planned

    def new_parts(
        self, planned: Sequence[PlannedQuery]
    ) -> List[ContinuousQuery]:
        """The parts a plan would add (unknown or dangling keys), deduped.

        These are the parts admission must find budget for; parts already
        referenced by a live slot ride along for free.
        """
        fresh: Dict[str, ContinuousQuery] = {}
        for pq in planned:
            for key in pq.keys:
                slot = self._slots.get(key)
                if (slot is None or slot.refs == 0) and key not in fresh:
                    fresh[key] = parse_query(key)
        return list(fresh.values())

    def active_words(self) -> int:
        """Combined estimated payload of all referenced slots."""
        return sum(
            slot.words for slot in self._slots.values() if slot.refs > 0
        )

    # -- refcounting -------------------------------------------------------

    def acquire(
        self,
        planned: Sequence[PlannedQuery],
        words: Optional[Dict[str, int]] = None,
    ) -> None:
        """Reference every part of ``planned``, creating missing slots.

        ``words`` carries admission's estimates for newly created keys.
        """
        for pq in planned:
            for key in pq.keys:
                slot = self._slots.get(key)
                if slot is None:
                    slot = Slot(key=key, query=parse_query(key))
                    self._slots[key] = slot
                if slot.refs > 0:
                    self.shared_acquires += 1
                slot.refs += 1
                if words and key in words:
                    slot.words = words[key]

    def release(self, planned: Sequence[PlannedQuery]) -> None:
        """Drop one reference from every part of ``planned``."""
        for pq in planned:
            for key in pq.keys:
                slot = self._slots.get(key)
                if slot is None or slot.refs < 1:
                    raise ConfigurationError(
                        f"release of unreferenced slot {key!r}"
                    )
                slot.refs -= 1

    # -- workload synchronisation -----------------------------------------

    def build_workload(self) -> Tuple[WorkloadAggregate, WorkloadReadings]:
        """The initial live workload over the referenced slots."""
        named, readings = [], []
        for slot in self._slots.values():
            if slot.refs > 0:
                aggregate, reading_fn = slot.query.build(
                    self._source, deployment=self._deployment
                )
                named.append((slot.key, aggregate))
                readings.append(reading_fn)
                slot.attached = True
        if not named:
            raise ConfigurationError("no referenced slots to build from")
        return WorkloadAggregate(named), WorkloadReadings(readings)

    def apply(
        self, workload: WorkloadAggregate, readings: WorkloadReadings
    ) -> Tuple[List[str], List[str]]:
        """Sync the slot table into the live workload (block boundary).

        Returns ``(added_keys, removed_keys)``.
        """
        added, removed = [], []
        for key in list(self._slots):
            slot = self._slots[key]
            if slot.refs > 0 and not slot.attached:
                aggregate, reading_fn = slot.query.build(
                    self._source, deployment=self._deployment
                )
                workload.add_slot(key, aggregate)
                readings.add_component(reading_fn)
                slot.attached = True
                added.append(key)
            elif slot.refs == 0:
                if slot.attached:
                    index = workload.remove_slot(key)
                    readings.remove_component(index)
                    removed.append(key)
                del self._slots[key]
        return added, removed

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        active = [slot for slot in self._slots.values() if slot.refs > 0]
        return {
            "slots": len(active),
            "attached": sum(1 for slot in active if slot.attached),
            "references": sum(slot.refs for slot in active),
            "shared_acquires": self.shared_acquires,
            "estimated_words": self.active_words(),
            "keys": [slot.key for slot in active],
        }


__all__ = [
    "COMBINE_RATIO",
    "COMBINE_VALUE",
    "PlannedQuery",
    "QueryPlanner",
    "Slot",
    "combine",
    "decompose",
]
