"""SD: synopsis diffusion over the rings topology (the multi-path baseline).

Each epoch, ring i+1 transmits while ring i listens: a node fuses every
synopsis it heard with its own SG output and broadcasts the fusion once.
Every upstream ring neighbour that hears the broadcast incorporates it, so a
reading is lost only if *all* its paths to the base station fail — the
robustness that Figure 2 shows, at the cost of the synopsis approximation
error (~12% for 40-bitmap FM sketches).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate
from repro.aggregates.grouping import annotate_groups
from repro.aggregates.workload import annotate_workload
from repro.core.payloads import MultipathPayload, missing_stats_words
from repro.errors import ConfigurationError
from repro.kernels import runs_fused
from repro.kernels.sd import refusal, run_sd_block
from repro.multipath.fm import (
    DEFAULT_BITS,
    FMSketch,
    single_item_sketches_block,
    words_batch,
)
from repro.network.links import (
    Channel,
    DeliveryPlan,
    Transmission,
    TransmissionLog,
    transmit_sequential,
)
from repro.network.messages import MessageAccountant
from repro.network.placement import BASE_STATION, Deployment, NodeId
from repro.network.rings import RingsTopology
from repro.network.simulator import (
    EpochOutcome,
    ReadingFn,
    exact_over,
    gather_readings,
    run_epochs_scalar,
)


class SynopsisDiffusionScheme:
    """Multi-path aggregation over rings."""

    def __init__(
        self,
        deployment: Deployment,
        rings: RingsTopology,
        aggregate: Aggregate,
        attempts: int = 1,
        count_bitmaps: int = 40,
        accountant: Optional[MessageAccountant] = None,
        name: str = "SD",
        use_batch: bool = True,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        self._deployment = deployment
        self._rings = rings
        self._aggregate = aggregate
        self._attempts = attempts
        self._count_bitmaps = count_bitmaps
        self._accountant = accountant or MessageAccountant()
        self._use_batch = use_batch
        self._engine_path: Optional[str] = None
        self.name = name
        # Rings are static between membership changes: precompute the
        # per-level schedule and each node's broadcast audience.
        self._rebuild_schedule()
        # Ground-truth population; shrinks/grows under node churn.
        self._alive_sensors = list(deployment.sensor_ids)

    def _rebuild_schedule(self) -> None:
        """Recompute the per-level schedule and broadcast audiences."""
        self._level_nodes = [
            self._rings.nodes_at_level(level)
            for level in self._rings.levels_descending()
        ]
        self._upstream = {
            node: tuple(self._rings.upstream_neighbors(node))
            for nodes in self._level_nodes
            for node in nodes
        }

    def on_membership_change(self, update) -> None:
        """Re-ring after node churn: adopt the recomputed BFS levels.

        Synopsis diffusion has no tree to repair — its robustness *is* the
        ring redundancy — so churn handling is exactly the paper's ring
        construction re-run over the survivors, plus a new ground-truth
        population.
        """
        self._rings = update.rings
        self._rebuild_schedule()
        self._alive_sensors = update.alive_sensors()

    @property
    def rings(self) -> RingsTopology:
        return self._rings

    @property
    def aggregate(self) -> Aggregate:
        """The aggregate (or query workload) this scheme computes."""
        return self._aggregate

    @property
    def engine_path(self) -> Optional[str]:
        """Which engine ran the last block: ``"fused"`` or ``"object: <why>"``."""
        return self._engine_path

    @property
    def latency_epochs(self) -> int:
        """Latency proxy: number of ring levels."""
        return self._rings.depth

    def _contrib_sketch(self, node: NodeId, epoch: int) -> Optional[FMSketch]:
        """Piggybacked contributing-count sketch (skipped for Count)."""
        if self._aggregate.synopsis_counts_contributors():
            return None
        sketch = FMSketch(self._count_bitmaps)
        sketch.insert("contrib", node, epoch)
        return sketch

    def _contrib_sketches_block(
        self, nodes: Sequence[NodeId], epochs: Sequence[int]
    ) -> List[List[Optional[FMSketch]]]:
        """:meth:`_contrib_sketch` for every (node, epoch) cell of a block.

        One vectorized pass: cell ``[j][i]`` hashes ``("contrib", nodes[i],
        epochs[j])``, exactly the scalar insertion.
        """
        if self._aggregate.synopsis_counts_contributors():
            return [[None] * len(nodes) for _ in epochs]
        return single_item_sketches_block(
            self._count_bitmaps, DEFAULT_BITS, ("contrib",), nodes, epochs
        )

    def _payload_words(self, payloads: List[MultipathPayload]) -> List[int]:
        """Wire sizes for a level's payloads, batched.

        Entry ``i`` equals ``synopsis_words(payloads[i].synopsis) +
        payloads[i].extra_words()`` exactly — only the per-payload RLE
        walks are fused into vectorized passes.
        """
        words = self._aggregate.synopsis_words_batch(
            [payload.synopsis for payload in payloads]
        )
        sketches = [
            payload.count_sketch
            for payload in payloads
            if payload.count_sketch is not None
        ]
        if sketches:
            extra = iter(words_batch(sketches))
            words = [
                total + (next(extra) if payload.count_sketch is not None else 0)
                for total, payload in zip(words, payloads)
            ]
        for index, payload in enumerate(payloads):
            if payload.missing_stats:
                words[index] += missing_stats_words(len(payload.missing_stats))
        return words

    def _plan_levels(self) -> List[List[Transmission]]:
        """The block-constant transmission structure (see TAG's twin)."""
        return [
            [
                Transmission(node, self._upstream[node], 0, 1, self._attempts)
                for node in nodes
            ]
            for nodes in self._level_nodes
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

        All the block's local synopses and contributing-count sketches are
        built in one vectorized pass per level before the first epoch runs;
        per-epoch (outcome, log) pairs are identical to looping
        :meth:`run_epoch`, which is what ``use_batch=False`` does.
        """
        epoch_list = [int(epoch) for epoch in epochs]
        if not self._use_batch:
            self._engine_path = "object: use_batch=False"
            return run_epochs_scalar(self, epoch_list, channel, readings)
        if runs_fused(self, channel, refusal):
            return run_sd_block(self, epoch_list, channel, readings)
        plan = channel.plan_epochs(self._plan_levels(), epoch_list)
        aggregate = self._aggregate
        local_blocks = []
        for nodes in self._level_nodes:
            synopses_block = aggregate.synopsis_local_block(
                nodes,
                epoch_list,
                [
                    gather_readings(readings, nodes, epoch)
                    for epoch in epoch_list
                ],
            )
            sketches_block = self._contrib_sketches_block(nodes, epoch_list)
            local_blocks.append((synopses_block, sketches_block))
        results: List[Tuple[EpochOutcome, TransmissionLog]] = []
        for column, epoch in enumerate(epoch_list):
            channel.reset_log()
            outcome = self._run_wave(
                epoch,
                channel,
                readings,
                [
                    (synopses[column], sketches[column])
                    for synopses, sketches in local_blocks
                ],
                plan,
            )
            results.append((outcome, channel.reset_log()))
        return results

    def _run_wave(
        self,
        epoch: int,
        channel: Channel,
        readings: ReadingFn,
        locals_by_level: Optional[List[Tuple[List, List]]],
        plan: Optional[DeliveryPlan],
    ) -> EpochOutcome:
        aggregate = self._aggregate
        inbox: Dict[NodeId, List[MultipathPayload]] = {}
        for index, nodes in enumerate(self._level_nodes):
            if locals_by_level is not None:
                synopses, count_sketches = locals_by_level[index]
            else:
                synopses = [
                    aggregate.synopsis_local(node, epoch, readings(node, epoch))
                    for node in nodes
                ]
                count_sketches = [
                    self._contrib_sketch(node, epoch) for node in nodes
                ]
            outgoing: List[MultipathPayload] = []
            for node, synopsis, count_sketch in zip(
                nodes, synopses, count_sketches
            ):
                contributors = 1 << node
                received = inbox.pop(node, None)
                if received is not None:
                    # The node's own synopsis, then its inbox in arrival
                    # order, fused once.
                    synopsis = aggregate.synopsis_fuse_many(
                        [synopsis] + [payload.synopsis for payload in received]
                    )
                    if count_sketch is not None:
                        count_sketch = FMSketch.fuse_many(
                            [count_sketch]
                            + [
                                payload.count_sketch
                                for payload in received
                                if payload.count_sketch is not None
                            ]
                        )
                    for payload in received:
                        contributors |= payload.contributors
                outgoing.append(
                    MultipathPayload(synopsis, count_sketch, contributors)
                )
            # Sizing is a pure function of each payload, so the whole level
            # is sized in one vectorized pass after the fusion loop.
            transmissions = [
                Transmission(
                    node,
                    self._upstream[node],
                    words,
                    self._accountant.spec_for_words(words).messages,
                    self._attempts,
                )
                for node, words in zip(nodes, self._payload_words(outgoing))
            ]
            if plan is not None:
                heard_lists = channel.transmit_epochs(
                    transmissions, epoch, plan, index
                )
            else:
                heard_lists = transmit_sequential(channel, transmissions, epoch)
            chaos = channel.chaos
            for node, payload, heard in zip(nodes, outgoing, heard_lists):
                for receiver in heard:
                    if chaos is None:
                        inbox.setdefault(receiver, []).append(payload)
                        continue
                    delivered = chaos.corrupt(payload, node, receiver, epoch)
                    target = inbox.setdefault(receiver, [])
                    target.append(delivered)
                    if chaos.duplicate(node, receiver, epoch):
                        target.append(delivered)

        received = inbox.pop(BASE_STATION, [])
        if not received:
            return EpochOutcome(
                estimate=0.0,
                contributing=0,
                contributing_estimate=0.0,
                extra=annotate_groups(
                    aggregate,
                    annotate_workload(
                        aggregate,
                        {"latency_epochs": self._rings.depth},
                        empty=True,
                    ),
                    empty=True,
                ),
            )
        synopsis = aggregate.synopsis_fuse_many(
            [payload.synopsis for payload in received]
        )
        count_sketch = received[0].count_sketch
        if count_sketch is not None:
            count_sketch = FMSketch.fuse_many(
                [
                    payload.count_sketch
                    for payload in received
                    if payload.count_sketch is not None
                ]
            )
        contributors = 0
        for payload in received:
            contributors |= payload.contributors
        chaos = channel.chaos
        if (
            chaos is not None
            and chaos.auditor is not None
            and count_sketch is not None
        ):
            # SD's contributing-count sketch is a pure OR-fold of per-node
            # single-item insertions, so the base station can audit it for
            # invented bits (corrupted synopsis rows) exactly.
            chaos.auditor.check_contrib_sketch(
                count_sketch, self._alive_sensors, epoch
            )
        if count_sketch is not None:
            contributing_estimate = count_sketch.estimate()
        else:
            contributing_estimate = aggregate.synopsis_eval(synopsis)
        estimate = aggregate.synopsis_eval(synopsis)
        return EpochOutcome(
            estimate=estimate,
            contributing=contributors.bit_count(),
            contributing_estimate=contributing_estimate,
            extra=annotate_groups(
                aggregate,
                annotate_workload(
                    aggregate, {"latency_epochs": self._rings.depth}
                ),
            ),
        )

    def exact_answer(self, epoch: int, readings: ReadingFn) -> float:
        return exact_over(self._aggregate, readings, self._alive_sensors, epoch)

    def adapt(self, epoch: int, outcome: EpochOutcome) -> None:
        """SD has no mode adaptation (ring levels are maintained offline)."""
