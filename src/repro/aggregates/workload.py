"""Multi-query workloads: N named queries through one aggregation wave.

The paper's setting (Section 2) is a base station serving *many* aggregate
queries over one sensor network. Delivery draws are keyed hashes of
``(seed, sender, receiver, epoch, attempt)`` — they depend on none of the
payload — so a single simulator pass can serve a whole query portfolio and
every query observes **byte-identical delivery draws**, extending the
paper's paired-comparison methodology from schemes to queries.

Two pieces make that concrete:

* :class:`WorkloadReadings` — the per-query reading streams zipped into one
  ``ReadingFn`` whose "reading" is a *tuple* (query i's value at slot i).
  Queries share one physical sensor stream but may wrap it differently
  (their own ``WINDOW`` state, for example), which is why the reading must
  fan out per query.
* :class:`WorkloadAggregate` — a :class:`CompositeAggregate` whose local
  computations dispatch slot i of the reading tuple to component i. The
  dispatch itself, merges, fusions, conversions and evaluation are inherited
  (component-wise over tuples); transmission sizes add component-wise, so
  one message bills the *combined* payload while the contributing-count
  piggyback travels once — the TAG/TinyDB multi-query piggybacking
  economics.

Per-epoch answers surface through two stashes the execution engine reads:
``last_evaluations`` (set at every base-station evaluation, inherited from
the composite) and ``last_exact_evaluations`` (set by :meth:`exact`). The
schemes annotate ``workload_estimates`` into each epoch outcome via
:func:`annotate_workload` and the simulator adds ``workload_truths``; the
report layer splits them back into per-query
:class:`~repro.network.simulator.RunResult` views.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate
from repro.aggregates.composite import CompositeAggregate
from repro.errors import ConfigurationError

#: A workload "reading": one value per query, in workload order.
ReadingTuple = Tuple[float, ...]


class WorkloadReadings:
    """Per-query reading streams zipped into one tuple-valued workload.

    Component i is query i's (possibly windowed) reading function over the
    shared physical stream; ``__call__`` returns the tuple of their values,
    and ``batch`` preserves each component's vectorized fast path — the
    values are exactly those each query's standalone run would read.
    """

    def __init__(self, components: Sequence[object]) -> None:
        if not components:
            raise ConfigurationError("a workload needs at least one reading")
        self._components = tuple(components)

    @property
    def components(self) -> Tuple[object, ...]:
        return self._components

    def __call__(self, node: int, epoch: int) -> ReadingTuple:
        return tuple(fn(node, epoch) for fn in self._components)

    def batch(self, nodes: Sequence[int], epoch: int) -> List[ReadingTuple]:
        """One epoch's reading tuples for many nodes, per-component batched.

        Queries over the bare sensor stream share one source *object*; each
        distinct source is asked once and its column reused (sources are
        pure functions of ``(node, epoch)``, so the values are the same).
        """
        asked: Dict[int, List[float]] = {}
        columns = []
        for fn in self._components:
            column = asked.get(id(fn))
            if column is None:
                batch = getattr(fn, "batch", None)
                if batch is not None:
                    column = batch(nodes, epoch)
                else:
                    column = [fn(node, epoch) for node in nodes]
                asked[id(fn)] = column
            columns.append(column)
        return list(zip(*columns))

    def on_membership_change(self, update) -> None:
        """Forward churn boundaries to stateful components (windows)."""
        for fn in self._components:
            hook = getattr(fn, "on_membership_change", None)
            if callable(hook):
                hook(update)

    def checkpoint_state(self) -> Dict[str, object]:
        """Checkpoint hook: each stateful slot's state, keyed by slot index."""
        return {
            str(index): fn.checkpoint_state()
            for index, fn in enumerate(self._components)
            if callable(getattr(fn, "checkpoint_state", None))
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        for index, fn in enumerate(self._components):
            if str(index) in state:
                fn.restore_state(state[str(index)])

    # -- dynamic membership (the aggregation service mutates between
    # blocks; see WorkloadAggregate.add_slot for the safety contract) ------

    def add_component(self, fn: object) -> None:
        """Append a query's reading stream as the new last slot."""
        self._components = self._components + (fn,)

    def remove_component(self, index: int) -> None:
        """Drop the reading stream at ``index`` (workload slot order)."""
        if not 0 <= index < len(self._components):
            raise ConfigurationError(
                f"no reading component at slot {index}"
            )
        self._components = (
            self._components[:index] + self._components[index + 1 :]
        )


class WorkloadAggregate(CompositeAggregate):
    """N named queries computed in one shared aggregation wave.

    Unlike the plain composite — which feeds every component the *same*
    reading — the workload dispatches slot i of the
    :class:`WorkloadReadings` tuple to component i, so each query sees its
    own (windowed, filtered) view of the shared stream, exactly as its
    standalone run would.
    """

    def __init__(self, named: Sequence[Tuple[str, Aggregate]]) -> None:
        if not named:
            raise ConfigurationError("a workload needs at least one query")
        names = [name for name, _ in named]
        if len(set(names)) != len(names):
            duplicates = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise ConfigurationError(
                f"duplicate query names in workload: {', '.join(duplicates)}"
            )
        super().__init__([aggregate for _, aggregate in named], primary=0)
        #: Query names, in workload order — the marker the engine keys
        #: per-query annotation on (plain composites do not have it).
        self.workload_names: Tuple[str, ...] = tuple(names)
        self.name = "workload(" + "+".join(names) + ")"
        #: Per-query loss-free answers from the most recent :meth:`exact`.
        self.last_exact_evaluations: Optional[Tuple[float, ...]] = None

    # -- dynamic membership ------------------------------------------------
    #
    # The aggregation service admits and evicts queries against a *running*
    # workload. Because delivery draws are payload-independent and every
    # slot's state lives in its own component, adding or removing a slot
    # between epoch blocks cannot perturb the surviving queries' bytes.
    # Safety contract: mutate only between ``EpochSimulator.run`` calls
    # (block boundaries), and mutate the paired :class:`WorkloadReadings`
    # in the same breath — slot order must stay aligned.

    def slot_index(self, name: str) -> int:
        """The workload-order slot of query ``name`` (raises if unknown)."""
        try:
            return self.workload_names.index(name)
        except ValueError:
            raise ConfigurationError(
                f"no query named {name!r} in {self.name}"
            ) from None

    def add_slot(self, name: str, aggregate: Aggregate) -> int:
        """Admit ``aggregate`` as the new last slot; returns its index.

        Stale per-epoch stashes are cleared: their tuples are sized to the
        old slot count and the next evaluation repopulates them.
        """
        if name in self.workload_names:
            raise ConfigurationError(
                f"duplicate query name in workload: {name}"
            )
        self._aggregates = self._aggregates + (aggregate,)
        self.workload_names = self.workload_names + (name,)
        self._refresh_after_mutation()
        return len(self._aggregates) - 1

    def remove_slot(self, name: str) -> int:
        """Evict query ``name``; returns the slot index it occupied.

        The workload may become empty — callers (the service engine idles an
        empty workload) must not run epochs until a slot is re-admitted.
        """
        index = self.slot_index(name)
        self._aggregates = (
            self._aggregates[:index] + self._aggregates[index + 1 :]
        )
        self.workload_names = (
            self.workload_names[:index] + self.workload_names[index + 1 :]
        )
        self._refresh_after_mutation()
        return index

    def _refresh_after_mutation(self) -> None:
        self._primary = 0
        self.name = "workload(" + "+".join(self.workload_names) + ")"
        self.last_evaluations = None
        self.last_exact_evaluations = None

    # -- per-query local computation: the composite owns the dispatch of
    # every local op; a workload only says how a reading tuple splits.

    def _slot_readings(self, reading: ReadingTuple) -> ReadingTuple:
        return reading

    def _slot_rows(self, reading_rows: Sequence[Sequence[ReadingTuple]]):
        return [
            [[cell[i] for cell in row] for row in reading_rows]
            for i in range(len(self._aggregates))
        ]

    # -- truth -------------------------------------------------------------

    def exact(self, readings: Sequence[ReadingTuple]) -> float:
        values = self.exact_all(readings)
        self.last_exact_evaluations = tuple(values)
        return values[self._primary]

    def exact_all(self, readings: Sequence[ReadingTuple]) -> List[float]:
        """Loss-free answers for every query over its own reading column."""
        if readings:
            columns = list(zip(*readings))
        else:
            columns = [() for _ in self._aggregates]
        return [
            aggregate.exact(list(column))
            for aggregate, column in zip(self._aggregates, columns)
        ]


def workload_evaluations(
    aggregate: object, empty: bool = False
) -> Optional[List[float]]:
    """Per-query answers of a workload's latest evaluation, or ``None``.

    ``None`` for every non-workload aggregate, so single-query runs stay
    byte-identical to the engine without the feature. ``empty`` is the
    nothing-reached-the-base-station case, where schemes report 0.0 without
    evaluating — every query's standalone run reports 0.0 there too.
    """
    names = getattr(aggregate, "workload_names", None)
    if names is None:
        return None
    if empty:
        return [0.0] * len(names)
    evaluations = aggregate.last_evaluations
    if evaluations is None:
        return [0.0] * len(names)
    return list(evaluations)


def annotate_workload(
    aggregate: object, extra: Dict[str, object], empty: bool = False
) -> Dict[str, object]:
    """Record per-query estimates into an epoch outcome's ``extra``.

    No-op (and no key) for non-workload aggregates; schemes call it at
    every base-station evaluation so the per-epoch stash is captured while
    it is fresh — the blocked engine records epochs *after* running a whole
    block, so reading the stash any later would alias the block's last
    epoch.
    """
    evaluations = workload_evaluations(aggregate, empty=empty)
    if evaluations is not None:
        extra["workload_estimates"] = evaluations
    return extra


__all__ = [
    "WorkloadAggregate",
    "WorkloadReadings",
    "annotate_workload",
    "workload_evaluations",
]
