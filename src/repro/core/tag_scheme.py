"""TAG: tree-based in-network aggregation (the paper's tree baseline).

Each epoch proceeds level-by-level from the deepest tree level toward the
root: every node in the level merges its children's partial results into
its own local partial, and the level's unicasts are drawn against a
block-wide :class:`~repro.network.links.DeliveryPlan` (bit-identical to
per-node draws). A lost message drops the entire subtree from the answer —
the communication-error behaviour that motivates the whole paper.

``attempts`` models TinyDB-style retransmissions (Figure 9b lets tree nodes
retransmit twice, i.e. ``attempts=3``); the default, like the original
TinyDB implementation the paper follows, is no retransmission.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate
from repro.aggregates.grouping import annotate_groups
from repro.aggregates.workload import annotate_workload
from repro.core.payloads import TreePayload
from repro.errors import ConfigurationError
from repro.kernels import runs_fused
from repro.kernels.tag import refusal, run_tag_block, tag_layout
from repro.network.links import (
    Channel,
    DeliveryPlan,
    Transmission,
    TransmissionLog,
    transmit_sequential,
)
from repro.network.messages import MessageAccountant
from repro.network.placement import BASE_STATION, Deployment, NodeId
from repro.network.simulator import (
    EpochOutcome,
    ReadingFn,
    exact_over,
    gather_readings,
    run_epochs_scalar,
)
from repro.tree.structure import Tree


def _level_groups(levels: Dict[NodeId, int]) -> List[List[NodeId]]:
    """Deepest-first transmission schedule: one sorted node list per level.

    Ties within a level are broken by node id for determinism; the base
    station (level 0) only listens, so it never appears.
    """
    grouped: Dict[int, List[NodeId]] = {}
    for node, level in levels.items():
        if node != BASE_STATION:
            grouped.setdefault(level, []).append(node)
    return [sorted(grouped[level]) for level in sorted(grouped, reverse=True)]


class TagScheme:
    """Tree aggregation over a spanning tree."""

    def __init__(
        self,
        deployment: Deployment,
        tree: Tree,
        aggregate: Aggregate,
        attempts: int = 1,
        accountant: Optional[MessageAccountant] = None,
        name: str = "TAG",
        use_batch: bool = True,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        self._deployment = deployment
        self._aggregate = aggregate
        self._attempts = attempts
        self._accountant = accountant or MessageAccountant()
        self._use_batch = use_batch
        self._engine_path: Optional[str] = None
        self.name = name
        self.replace_tree(tree)
        # Ground-truth population; shrinks/grows under node churn.
        self._alive_sensors = list(deployment.sensor_ids)

    @property
    def tree(self) -> Tree:
        return self._tree

    @property
    def aggregate(self) -> Aggregate:
        """The aggregate (or query workload) this scheme computes."""
        return self._aggregate

    @property
    def engine_path(self) -> Optional[str]:
        """Which engine ran the last block: ``"fused"`` or ``"object: <why>"``."""
        return self._engine_path

    def replace_tree(self, tree: Tree) -> None:
        """Adopt a maintained tree (Section 2's parent switching [24]).

        TAG aggregation is stateless between epochs, so swapping the
        routing tree between waves is safe; the next epoch simply follows
        the new parents. The transmission schedule, the depth and the fused
        kernel's row layout are recomputed — here, once per tree, not per
        block.
        """
        levels = tree.levels()
        self._tree = tree
        self._levels = _level_groups(levels)
        self._depth = max(levels.values(), default=0)
        self._parents = dict(tree.parents)
        self._kernel_layout = tag_layout(self._levels, self._parents)

    def on_membership_change(self, update) -> None:
        """Adopt the repaired tree and live population after node churn.

        TAG aggregation is stateless between epochs, so churn repair is
        just :meth:`replace_tree` over the repaired routing tree plus a new
        ground-truth population (dead sensors produce no readings; stranded
        ones still count in the truth but are gone from the tree).
        """
        self.replace_tree(update.tree)
        self._alive_sensors = update.alive_sensors()

    @property
    def latency_epochs(self) -> int:
        """Latency proxy: number of level-by-level forwarding steps."""
        return self._depth

    def _plan_levels(self) -> List[List[Transmission]]:
        """The block-constant transmission structure, one skeleton per level.

        Payload words/messages vary per epoch and are irrelevant to
        delivery; sender, receivers and attempts are what a
        :class:`~repro.network.links.DeliveryPlan` draws against.
        """
        return [
            [
                Transmission(
                    node, (self._parents.get(node),), 0, 1, self._attempts
                )
                for node in level_nodes
            ]
            for level_nodes in self._levels
        ]

    def run_epoch(
        self, epoch: int, channel: Channel, readings: ReadingFn
    ) -> EpochOutcome:
        """The scalar reference wave: one node, one draw at a time."""
        return self._run_wave(epoch, channel, readings, None, None)

    def run_epochs(
        self, epochs: Sequence[int], channel: Channel, readings: ReadingFn
    ) -> List[Tuple[EpochOutcome, TransmissionLog]]:
        """Run a block of epochs against one precomputed delivery plan.

        Per-epoch results (outcome, channel log) are identical to looping
        :meth:`run_epoch` under any split of ``epochs`` into blocks; only
        the channel draws and the local partials are hoisted out of the
        loop. ``use_batch=False`` runs exactly that loop (the oracle).
        """
        epoch_list = [int(epoch) for epoch in epochs]
        if not self._use_batch:
            self._engine_path = "object: use_batch=False"
            return run_epochs_scalar(self, epoch_list, channel, readings)
        if runs_fused(self, channel, refusal):
            return run_tag_block(self, epoch_list, channel, readings)
        plan = channel.plan_epochs(self._plan_levels(), epoch_list)
        aggregate = self._aggregate
        partial_blocks = [
            aggregate.tree_local_block(
                level_nodes,
                epoch_list,
                [
                    gather_readings(readings, level_nodes, epoch)
                    for epoch in epoch_list
                ],
            )
            for level_nodes in self._levels
        ]
        results: List[Tuple[EpochOutcome, TransmissionLog]] = []
        for column, epoch in enumerate(epoch_list):
            channel.reset_log()
            outcome = self._run_wave(
                epoch,
                channel,
                readings,
                [block[column] for block in partial_blocks],
                plan,
            )
            results.append((outcome, channel.reset_log()))
        return results

    def _run_wave(
        self,
        epoch: int,
        channel: Channel,
        readings: ReadingFn,
        partials_by_level: Optional[List[List[object]]],
        plan: Optional[DeliveryPlan],
    ) -> EpochOutcome:
        aggregate = self._aggregate
        inbox: Dict[NodeId, List[TreePayload]] = {}
        for index, level_nodes in enumerate(self._levels):
            if partials_by_level is not None:
                partials = partials_by_level[index]
            else:
                partials = [
                    aggregate.tree_local(node, epoch, readings(node, epoch))
                    for node in level_nodes
                ]
            transmissions: List[Transmission] = []
            outgoing: List[Tuple[NodeId, TreePayload]] = []
            for node, partial in zip(level_nodes, partials):
                count = 1
                contributors = 1 << node
                for received in inbox.pop(node, ()):
                    partial = aggregate.tree_merge(partial, received.partial)
                    count += received.count
                    contributors |= received.contributors
                payload = TreePayload(partial, count, contributors, sender=node)
                words = aggregate.tree_words(partial) + payload.extra_words()
                spec = self._accountant.spec_for_words(words)
                parent = self._parents.get(node)
                transmissions.append(
                    Transmission(
                        node, (parent,), words, spec.messages, self._attempts
                    )
                )
                outgoing.append((parent, payload))
            if plan is not None:
                heard_lists = channel.transmit_epochs(
                    transmissions, epoch, plan, index
                )
            else:
                heard_lists = transmit_sequential(channel, transmissions, epoch)
            chaos = channel.chaos
            for (parent, payload), heard in zip(outgoing, heard_lists):
                if heard:
                    target = inbox.setdefault(parent, [])
                    target.append(payload)
                    if chaos is not None and chaos.duplicate(
                        payload.sender, parent, epoch
                    ):
                        target.append(payload)

        received = inbox.pop(BASE_STATION, [])
        if not received:
            return EpochOutcome(
                estimate=0.0,
                contributing=0,
                contributing_estimate=0.0,
                extra=annotate_groups(
                    aggregate,
                    annotate_workload(
                        aggregate, {"latency_epochs": self._depth}, empty=True
                    ),
                    empty=True,
                ),
            )
        partial = received[0].partial
        count = received[0].count
        contributors = received[0].contributors
        for extra_payload in received[1:]:
            partial = aggregate.tree_merge(partial, extra_payload.partial)
            count += extra_payload.count
            contributors |= extra_payload.contributors
        estimate = aggregate.tree_eval(partial)
        return EpochOutcome(
            estimate=estimate,
            contributing=contributors.bit_count(),
            contributing_estimate=float(count),
            extra=annotate_groups(
                aggregate,
                annotate_workload(aggregate, {"latency_epochs": self._depth}),
            ),
        )

    def exact_answer(self, epoch: int, readings: ReadingFn) -> float:
        return exact_over(self._aggregate, readings, self._alive_sensors, epoch)

    def adapt(self, epoch: int, outcome: EpochOutcome) -> None:
        """TAG does not adapt its aggregation mode (parent re-selection for
        link quality is a topology-maintenance concern handled offline)."""
