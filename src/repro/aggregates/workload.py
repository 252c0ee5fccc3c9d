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

Per-epoch answers surface through two stashes: ``last_evaluations`` (set
at every base-station evaluation, inherited from the composite) and
``last_exact_evaluations`` (set by :meth:`exact_array`). The aggregate's record
hooks turn them into ``workload_estimates`` (the schemes add it to each
epoch outcome) and ``workload_truths`` (the simulator adds it to each
record); the report layer splits them back into per-query
:class:`~repro.network.simulator.RunResult` views.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.base import Aggregate
from repro.aggregates.composite import CompositeAggregate
from repro.errors import ConfigurationError
from repro.network.simulator import gather_reading_block

#: A workload "reading": one value per query, in workload order.
ReadingTuple = Tuple[float, ...]


class WorkloadReadings:
    """Per-query reading streams zipped into one tuple-valued workload.

    Component i is query i's (possibly windowed) reading function over the
    shared physical stream; ``__call__`` returns the tuple of their values
    and ``block`` one matrix per component — the values are exactly those
    each query's standalone run would read.
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

    def block(self, nodes: Sequence[int], epochs: Sequence[int]) -> Tuple:
        """Many epochs' readings, one float64 ``(epochs, nodes)`` block per
        slot: each stream's
        :func:`~repro.network.simulator.gather_reading_block`.

        Queries over the bare sensor stream share one source *object*; each
        distinct source is read once and its block reused (sources are pure
        functions of ``(node, epoch)``, so the values are the same).
        """
        asked: Dict[int, np.ndarray] = {}
        blocks = []
        for fn in self._components:
            block = asked.get(id(fn))
            if block is None:
                block = asked[id(fn)] = gather_reading_block(fn, nodes, epochs)
            blocks.append(block)
        return tuple(blocks)

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
        #: Query names, in workload order (also the marker the kernel's
        #: refusal names a workload by; plain composites do not have it).
        self.workload_names: Tuple[str, ...] = tuple(names)
        self.name = "workload(" + "+".join(names) + ")"
        #: Per-query loss-free answers from the most recent :meth:`exact_array`.
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

    def leaf_slots(self) -> List[Tuple[Aggregate, Optional[int]]]:
        """Every query's leaves, each reading its query's slot."""
        return [
            (leaf, index)
            for index, aggregate in enumerate(self._aggregates)
            for leaf, _ in aggregate.leaf_slots()
        ]

    def _refresh_after_mutation(self) -> None:
        self._primary = 0
        self.name = "workload(" + "+".join(self.workload_names) + ")"
        self.last_evaluations = None
        self.last_exact_evaluations = None

    # -- per-query local computation: the composite owns the dispatch of
    # every local op; a workload's reading tuple (a cell's values, or a
    # block's matrices) already holds one entry per slot.

    def _slot_readings(self, readings: Tuple) -> Tuple:
        return readings

    # -- epoch-record extras -----------------------------------------------

    def estimate_extras(self, empty: bool = False) -> Dict[str, object]:
        """Every query's estimate; 0.0 each when nothing arrived, as each
        query's standalone run reports."""
        evaluations = None if empty else self.last_evaluations
        if evaluations is None:
            return {"workload_estimates": [0.0] * len(self.workload_names)}
        return {"workload_estimates": list(evaluations)}

    def truth_extras(self) -> Dict[str, object]:
        """Every query's loss-free answer, from the latest :meth:`exact_array`."""
        if self.last_exact_evaluations is None:
            return {}
        return {"workload_truths": list(self.last_exact_evaluations)}

    # -- truth -------------------------------------------------------------

    def exact_array(self, readings: Tuple, nodes: Sequence[int]) -> float:
        """Every query's loss-free answer, each over its own slot's row as
        :meth:`WorkloadReadings.block` hands them over."""
        values = [
            aggregate.exact_array(row, nodes)
            for aggregate, row in zip(self._aggregates, readings)
        ]
        self.last_exact_evaluations = tuple(values)
        return values[self._primary]


__all__ = ["WorkloadAggregate", "WorkloadReadings"]
