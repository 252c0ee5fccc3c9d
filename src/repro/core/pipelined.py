"""Pipelined tree aggregation (Section 2's "pipelined fashion" [10]).

The snapshot :class:`~repro.core.tag_scheme.TagScheme` models one complete
leaf-to-root wave per epoch — correct, but it hides that a deep tree's wave
spans many radio epochs. TAG's pipelined mode (the paper's citation [10])
trades staleness for throughput: **every node transmits once per epoch**,
sending its current reading merged with whatever child payloads arrived in
the *previous* epoch. Partial results ripple toward the root one level per
epoch, so:

* the first complete answer appears after ``depth`` epochs (the fill);
* thereafter one answer emerges **every** epoch;
* the answer at epoch e mixes readings of different ages: a level-l node's
  contribution was generated at epoch ``e - l + 1``.

:class:`PipelinedTagScheme` implements exactly that discipline and reports
the mixing explicitly — each epoch's ``extra`` carries the oldest
contribution age, and :meth:`mixed_truth` computes the age-adjusted ground
truth the steady-state answer should equal under no loss.

Loss behaves as in snapshot TAG (a drop loses the subtree's accumulated
state for that epoch), with one pipelined twist: the dropped state is gone
for good — the child re-sends *fresh* data next epoch, not the lost batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, TypeVar

from repro.aggregates.base import Aggregate
from repro.errors import ConfigurationError
from repro.network.links import Channel
from repro.network.messages import MessageAccountant
from repro.network.placement import BASE_STATION, Deployment, NodeId
from repro.network.simulator import EpochOutcome, ReadingFn
from repro.tree.structure import Tree

P = TypeVar("P")


@dataclass
class _PipelinedPayload(Generic[P]):
    """A partial result in flight, tagged with its oldest reading's epoch."""

    partial: P
    count: int
    contributors: int
    oldest_epoch: int

    def extra_words(self) -> int:
        return 1  # the piggybacked count, as in snapshot TAG


class PipelinedTagScheme:
    """TAG's pipelined mode: one transmission per node per epoch, one
    level of progress per epoch.

    Satisfies the :class:`~repro.network.simulator.AggregationScheme`
    protocol, so :class:`~repro.network.simulator.EpochSimulator` drives it
    unchanged. Expect empty answers during the first ``depth - 1`` fill
    epochs and age-mixed answers afterwards.
    """

    def __init__(
        self,
        deployment: Deployment,
        tree: Tree,
        aggregate: Aggregate,
        attempts: int = 1,
        accountant: Optional[MessageAccountant] = None,
        name: str = "TAG-pipelined",
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        self._deployment = deployment
        self._tree = tree
        self._aggregate = aggregate
        self._attempts = attempts
        self._accountant = accountant or MessageAccountant()
        self.name = name
        self._levels = tree.levels()
        self.depth = max(self._levels.values(), default=0)
        self._order: List[NodeId] = [
            node for level in tree.level_groups() for node in level
        ]
        #: Payloads received last epoch, waiting to be merged and forwarded.
        self._held: Dict[NodeId, List[_PipelinedPayload]] = {}

    @property
    def tree(self) -> Tree:
        return self._tree

    def reset(self) -> None:
        """Drain the pipeline (e.g. between measurement phases)."""
        self._held.clear()

    def run_epoch(
        self, epoch: int, channel: Channel, readings: ReadingFn
    ) -> EpochOutcome:
        aggregate = self._aggregate
        arriving: Dict[NodeId, List[_PipelinedPayload]] = {}

        for node in self._order:
            partial = aggregate.tree_local(node, epoch, readings(node, epoch))
            count = 1
            contributors = 1 << node
            oldest = epoch
            for held in self._held.pop(node, ()):
                partial = aggregate.tree_merge(partial, held.partial)
                count += held.count
                contributors |= held.contributors
                oldest = min(oldest, held.oldest_epoch)
            payload = _PipelinedPayload(partial, count, contributors, oldest)
            words = aggregate.tree_words(partial) + payload.extra_words()
            spec = self._accountant.spec_for_words(words)
            parent = self._tree.parent(node)
            heard = channel.transmit(
                node, [parent], epoch, words, spec.messages, self._attempts
            )
            if heard:
                arriving.setdefault(parent, []).append(payload)

        base_payloads = arriving.pop(BASE_STATION, [])
        # Everything else waits one epoch: the pipeline discipline.
        self._held = arriving

        if not base_payloads:
            return EpochOutcome(
                estimate=0.0,
                contributing=0,
                contributing_estimate=0.0,
                extra={"pipeline_fill": epoch < self.depth, "staleness": 0},
            )
        partial = base_payloads[0].partial
        count = base_payloads[0].count
        contributors = base_payloads[0].contributors
        oldest = base_payloads[0].oldest_epoch
        for payload in base_payloads[1:]:
            partial = aggregate.tree_merge(partial, payload.partial)
            count += payload.count
            contributors |= payload.contributors
            oldest = min(oldest, payload.oldest_epoch)
        return EpochOutcome(
            estimate=aggregate.tree_eval(partial),
            contributing=contributors.bit_count(),
            contributing_estimate=float(count),
            extra={
                "pipeline_fill": epoch < self.depth,
                "staleness": epoch - oldest,
            },
        )

    # -- truth -----------------------------------------------------------------

    def exact_answer(self, epoch: int, readings: ReadingFn) -> float:
        """Snapshot truth (what a zero-latency network would answer)."""
        values = [readings(node, epoch) for node in self._deployment.sensor_ids]
        return self._aggregate.exact(values)

    def mixed_truth(self, epoch: int, readings: ReadingFn) -> float:
        """Age-adjusted truth: each level-l node's reading from epoch
        ``epoch - l + 1``. The steady-state lossless pipelined answer equals
        exactly this, not the snapshot truth — the staleness trade the
        paper's pipelining reference is about.
        """
        values = []
        for node in self._deployment.sensor_ids:
            level = self._levels[node]
            source_epoch = epoch - level + 1
            if source_epoch < 0:
                continue  # still filling
            values.append(readings(node, source_epoch))
        return self._aggregate.exact(values)

    def adapt(self, epoch: int, outcome: EpochOutcome) -> None:
        """Pipelined TAG has no runtime adaptation."""

    # -- checkpoint ------------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        """The payloads in flight, ``[partial, count, contributors, oldest]``
        rows per receiving node: what the next epoch forwards.

        Numbers and tuples of numbers (count, sum, average partials) are
        saved as they are; any other partial raises
        :class:`~repro.errors.ConfigurationError` at the first checkpoint
        rather than resuming wrong.
        """
        held: Dict[str, List[list]] = {}
        for node, payloads in self._held.items():
            rows = held[str(node)] = []
            for payload in payloads:
                partial = payload.partial
                cells = partial if isinstance(partial, tuple) else (partial,)
                if not all(isinstance(cell, (int, float)) for cell in cells):
                    raise ConfigurationError(
                        "pipelined TAG cannot checkpoint "
                        f"{type(self._aggregate).__name__} partials "
                        f"({type(partial).__name__}): only numbers and tuples "
                        "of numbers survive a resume"
                    )
                if isinstance(partial, tuple):
                    partial = list(partial)
                rows.append(
                    [partial, payload.count, payload.contributors, payload.oldest_epoch]
                )
        return {"kind": "tag-pipelined", "held": held}

    def restore_state(self, state: Dict[str, object], membership=None) -> None:
        """Inverse of :meth:`checkpoint_state` (lists come back as tuples)."""
        self._held = {
            int(node): [
                _PipelinedPayload(
                    tuple(partial) if isinstance(partial, list) else partial,
                    count,
                    contributors,
                    oldest,
                )
                for partial, count, contributors, oldest in rows
            ]
            for node, rows in state["held"].items()
        }
