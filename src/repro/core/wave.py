"""One aggregation wave over three layouts (Sections 3 and 4.1).

Section 3 defines TAG and SD as the two extreme labelings of a
Tributary-Delta graph — every vertex T, or every vertex M — and Section 4.1
runs both kinds of vertex in one shared ring-level sweep (tree links are a
subset of ring links, so every sender's receiver is exactly one level closer
to the base station and one epoch schedule serves both). So there is one
wave, over an immutable :class:`WaveLayout`:

* a **T node** merges its T children's partials and unicasts to its tree
  parent;
* an **M node** fuses its own SG synopsis with received synopses, *converts*
  any tree partials received from T children (Section 5's conversion
  function) and fuses those too, then broadcasts once to its upstream
  audience — of which the M receivers incorporate it (T receivers ignore M
  broadcasts, preserving edge correctness).

Messages carry the contributing-count piggyback of Section 4.2, and the
layout's *reporters* attach their tributaries' "nodes not contributing"
count. TAG's layout is all T over its tree's levels, SD's all M over the
rings, TD's whatever its graph says this block. Each scheme builds its
layout and evaluates what reached the base station; :class:`LayoutWave`
runs the rest — the fused kernel (:func:`repro.kernels.td.run_td_block`)
when :func:`repro.kernels.td.refusal` lets it, else the object wave over
locals built one vectorized pass per level, and under ``use_batch=False``
the scalar oracle, one node and one draw at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.aggregates.base import Aggregate
from repro.aggregates.grouping import annotate_groups
from repro.aggregates.workload import annotate_workload
from repro.core.payloads import (
    MultipathPayload,
    TreePayload,
    combine_stats,
    missing_stats_words,
)
from repro.kernels.td import refusal
from repro.multipath.fm import (
    DEFAULT_BITS,
    FMSketch,
    counted_sketches,
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
    gather_readings,
    run_epochs_scalar,
)


@dataclass(frozen=True)
class WaveLayout:
    """One labelling of the wave, fixed for a block.

    Attributes:
        levels: per level, deepest first, one skeleton
            :class:`~repro.network.links.Transmission` per sender: its tree
            parent (T) or upstream audience (M) as receivers, and its
            attempts — exactly what :meth:`Channel.plan_epochs` draws
            against.
        multipath: the M nodes; the base station is among them iff it runs
            the multi-path side.
        tree_attempts, multipath_attempts: the per-mode send attempts.
        reporters: the M nodes whose payload carries their own missing
            statistic, each with the static size of its T children's
            subtrees (its expected tributary count).
    """

    levels: Tuple[Tuple[Transmission, ...], ...]
    multipath: FrozenSet[NodeId]
    tree_attempts: int = 1
    multipath_attempts: int = 1
    reporters: Mapping[NodeId, int] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        level_nodes: Sequence[Sequence[NodeId]],
        multipath: AbstractSet[NodeId],
        parents: Mapping[NodeId, NodeId],
        audiences: Mapping[NodeId, Tuple[NodeId, ...]],
        tree_attempts: int = 1,
        multipath_attempts: int = 1,
        reporters: Optional[Mapping[NodeId, int]] = None,
    ) -> "WaveLayout":
        """The layout of ``level_nodes`` with ``multipath`` labelled M.

        A T node unicasts to ``parents.get(node)`` (None for an orphan, which
        only the object wave models); an M node broadcasts to
        ``audiences[node]``.
        """
        multipath = frozenset(multipath)
        levels = tuple(
            tuple(
                Transmission(node, audiences[node], 0, 1, multipath_attempts)
                if node in multipath
                else Transmission(
                    node, (parents.get(node),), 0, 1, tree_attempts
                )
                for node in nodes
            )
            for nodes in level_nodes
        )
        return cls(
            levels, multipath, tree_attempts, multipath_attempts, reporters or {}
        )

    @cached_property
    def level_nodes(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Each level's senders, in wave order."""
        return tuple(tuple(item.sender for item in level) for level in self.levels)

    def missing(self, node: NodeId, contributing: int) -> Optional[int]:
        """Nodes missing from ``node``'s tributaries this epoch, or None.

        A reporter at the tributary/delta boundary reports how many of its
        tree descendants did not contribute: its expected tributary count
        minus the counts actually received. Each T child is the root of a
        unique subtree (path correctness), so there is no double-counting —
        the paper's footnote 3 argument. Switchable M nodes always report
        (their subtree missing equals their tributary missing), so the
        shrink rule can find the quiet tips; interior delta nodes without
        tributaries report nothing.
        """
        expected = self.reporters.get(node)
        if expected is None:
            return None
        return max(0, expected - contributing)


def ring_schedule(
    rings: RingsTopology,
) -> Tuple[List[List[NodeId]], Dict[NodeId, Tuple[NodeId, ...]]]:
    """The rings' deepest-first level lists and each node's upstream audience."""
    level_nodes = [
        rings.nodes_at_level(level) for level in rings.levels_descending()
    ]
    audiences = {
        node: tuple(rings.upstream_neighbors(node))
        for nodes in level_nodes
        for node in nodes
    }
    return level_nodes, audiences


def outcome_extra(
    aggregate: Aggregate, extra: Dict[str, object], empty: bool = False
) -> Dict[str, object]:
    """``extra`` with the workload's and the groups' per-epoch estimates."""
    return annotate_groups(
        aggregate, annotate_workload(aggregate, extra, empty=empty), empty=empty
    )


def empty_outcome(aggregate: Aggregate, extra: Dict[str, object]) -> EpochOutcome:
    """The outcome of an epoch in which nothing reached the base station."""
    return EpochOutcome(0.0, 0, 0.0, outcome_extra(aggregate, extra, empty=True))


class LayoutWave:
    """The wave TAG, SD and TD share, and its three engines.

    A subclass provides :meth:`_wave_layout` (its current labelling) and
    :meth:`_evaluate_base_station` (the epoch's answer from what reached the
    base station), and drives :meth:`_run_blocks` / :meth:`_run_wave` from
    its own ``run_epochs`` / ``run_epoch``.
    """

    def __init__(
        self,
        deployment: Deployment,
        aggregate: Aggregate,
        accountant: Optional[MessageAccountant],
        use_batch: bool,
        name: str,
        count_bitmaps: int = 40,
    ) -> None:
        self._deployment = deployment
        self._bind_aggregate(aggregate)
        self._accountant = accountant or MessageAccountant()
        self._count_bitmaps = count_bitmaps
        self._use_batch = use_batch
        self._engine_path: Optional[str] = None
        self.name = name
        # Ground-truth population; shrinks/grows under node churn.
        self._alive_sensors = list(deployment.sensor_ids)

    def _bind_aggregate(self, aggregate: Aggregate) -> None:
        """Carry ``aggregate`` on the wire from the next block on."""
        self._aggregate = aggregate
        # Additive partials have a constant wire size (the ``tree_words``
        # contract behind the fused kernel's tributary pass), so tree
        # payloads can be sized once instead of per node per epoch.
        self._tree_payload_words: Optional[int] = (
            int(aggregate.tree_words(aggregate.tree_empty())) + 1
            if aggregate.tree_partials_additive()
            else None
        )

    @property
    def aggregate(self) -> Aggregate:
        """The aggregate (or query workload) this scheme computes."""
        return self._aggregate

    @property
    def engine_path(self) -> Optional[str]:
        """Which engine ran the last block: ``"fused"`` or ``"object: <why>"``."""
        return self._engine_path

    def _wave_layout(self) -> WaveLayout:
        raise NotImplementedError

    def _evaluate_base_station(
        self,
        epoch: int,
        chaos,
        partials: List[object],
        exact_count: int,
        synopsis: Optional[object],
        count_sketch: Optional[FMSketch],
        contributing: int,
        missing_stats: Optional[Dict[NodeId, int]],
    ) -> EpochOutcome:
        """The epoch's outcome from what reached the base station.

        Shared by the waves and the fused kernel. ``partials`` are the tree
        partials delivered straight to the base (``exact_count`` their
        summed contributing counts), ``synopsis`` / ``count_sketch`` the
        fused delta payloads (None when none arrived — always, for a T-mode
        base), ``contributing`` the ground-truth contributor count and
        ``missing_stats`` the statistics an M-mode base collected.
        """
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def _count_convert(self, count: int, sender: NodeId, epoch: int) -> FMSketch:
        """Convert an exact tree contributing-count into an FM sketch."""
        sketch = FMSketch(self._count_bitmaps)
        sketch.insert_count(count, "contrib-conv", sender, epoch)
        return sketch

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
        """:meth:`_contrib_sketch` for every (node, epoch) cell, one pass."""
        if self._aggregate.synopsis_counts_contributors():
            return [[None] * len(nodes) for _ in epochs]
        return single_item_sketches_block(
            self._count_bitmaps, DEFAULT_BITS, ("contrib",), nodes, epochs
        )

    # -- one block ---------------------------------------------------------

    def _run_blocks(
        self, epochs: Sequence[int], channel: Channel, readings: ReadingFn, kernel
    ) -> List[Tuple[EpochOutcome, TransmissionLog]]:
        """Run a block of epochs against one precomputed delivery plan.

        The layout is fixed for the whole block (the simulator adapts only
        at block boundaries). Eligible blocks run as ``kernel`` — the
        calling scheme module's binding of
        :func:`~repro.kernels.td.run_td_block`, looked up there on every
        call so that each scheme's name stays a tracing seam; the rest run
        object waves over locals built in one vectorized pass per level up
        front. Either way the per-epoch (outcome, log) pairs are
        identical to looping the scheme's ``run_epoch``, which is what
        ``use_batch=False`` does.
        """
        epoch_list = [int(epoch) for epoch in epochs]
        if not self._use_batch:
            self._engine_path = "object: use_batch=False"
            return run_epochs_scalar(self, epoch_list, channel, readings)
        layout = self._wave_layout()
        reason = refusal(layout, self._aggregate, channel)
        self._engine_path = "fused" if reason is None else f"object: {reason}"
        if reason is None:
            return kernel(self, layout, epoch_list, channel, readings)
        plan = channel.plan_epochs(layout.levels, epoch_list)
        multipath = layout.multipath
        level_m_nodes = []
        level_t_nodes = []
        for nodes in layout.level_nodes:
            level_m_nodes.append([node for node in nodes if node in multipath])
            level_t_nodes.append([node for node in nodes if node not in multipath])
        local_blocks = []
        for m_nodes, t_nodes in zip(level_m_nodes, level_t_nodes):
            synopses_block = self._aggregate.synopsis_local_block(
                m_nodes,
                epoch_list,
                [
                    gather_readings(readings, m_nodes, epoch)
                    for epoch in epoch_list
                ],
            )
            sketches_block = self._contrib_sketches_block(m_nodes, epoch_list)
            partials_block = self._aggregate.tree_local_block(
                t_nodes,
                epoch_list,
                [
                    gather_readings(readings, t_nodes, epoch)
                    for epoch in epoch_list
                ],
            )
            local_blocks.append((synopses_block, sketches_block, partials_block))
        results: List[Tuple[EpochOutcome, TransmissionLog]] = []
        for column, epoch in enumerate(epoch_list):
            channel.reset_log()
            locals_by_level = [
                (
                    dict(zip(m_nodes, synopses[column])),
                    dict(zip(m_nodes, sketches[column])),
                    dict(zip(t_nodes, partials[column])),
                )
                for m_nodes, t_nodes, (synopses, sketches, partials) in zip(
                    level_m_nodes, level_t_nodes, local_blocks
                )
            ]
            outcome = self._run_wave(
                layout, epoch, channel, readings, locals_by_level, plan
            )
            results.append((outcome, channel.reset_log()))
        return results

    # -- one epoch ---------------------------------------------------------

    def _run_wave(
        self,
        layout: WaveLayout,
        epoch: int,
        channel: Channel,
        readings: ReadingFn,
        locals_by_level: Optional[List[Tuple[Dict, Dict, Dict]]],
        plan: Optional[DeliveryPlan],
    ) -> EpochOutcome:
        multipath = layout.multipath
        inbox_tree: Dict[NodeId, List[TreePayload]] = {}
        inbox_syn: Dict[NodeId, List[MultipathPayload]] = {}

        for index, level in enumerate(layout.levels):
            # The engine hands the whole level's precomputed locals in (tree
            # links point one ring up, so nothing in this level feeds
            # anything else in it — level-synchronous batching is exact);
            # the scalar wave finds nothing here and computes per node.
            scalar = locals_by_level is None
            synopses, count_sketches, tree_partials = (
                ({}, {}, {}) if scalar else locals_by_level[index]
            )

            converted = (
                None
                if scalar
                else self._convert_level(
                    layout, layout.level_nodes[index], epoch, inbox_tree
                )
            )
            outgoing: List[Tuple[bool, object]] = []
            for item in level:
                node = item.sender
                if node not in multipath:
                    payload = self._prepare_tree_node(
                        node,
                        epoch,
                        readings,
                        inbox_tree,
                        tree_partials.get(node),
                    )
                    outgoing.append((True, payload))
                else:
                    if scalar:
                        count_sketch = self._contrib_sketch(node, epoch)
                    else:
                        count_sketch = count_sketches.get(node)
                    payload = self._prepare_multipath_node(
                        layout,
                        node,
                        epoch,
                        readings,
                        inbox_tree,
                        inbox_syn,
                        synopses.get(node),
                        count_sketch,
                        converted,
                    )
                    outgoing.append((False, payload))
            transmissions = self._level_transmissions(level, outgoing)

            if plan is not None:
                heard_lists = channel.transmit_epochs(
                    transmissions, epoch, plan, index
                )
            else:
                heard_lists = transmit_sequential(channel, transmissions, epoch)

            chaos = channel.chaos
            for item, (is_tree, payload), heard in zip(
                level, outgoing, heard_lists
            ):
                node = item.sender
                if is_tree:
                    if heard:
                        parent = item.receivers[0]
                        target = inbox_tree.setdefault(parent, [])
                        target.append(payload)
                        if chaos is not None and chaos.duplicate(
                            node, parent, epoch
                        ):
                            target.append(payload)
                else:
                    for receiver in heard:
                        # T receivers ignore M broadcasts (edge correctness,
                        # Property 1).
                        if receiver in multipath:
                            if chaos is None:
                                inbox_syn.setdefault(receiver, []).append(
                                    payload
                                )
                                continue
                            delivered = chaos.corrupt(
                                payload, node, receiver, epoch
                            )
                            target = inbox_syn.setdefault(receiver, [])
                            target.append(delivered)
                            if chaos.duplicate(node, receiver, epoch):
                                target.append(delivered)
        return self._fold_base_station(
            layout, epoch, channel.chaos, inbox_tree, inbox_syn
        )

    def _convert_level(
        self,
        layout: WaveLayout,
        nodes: Sequence[NodeId],
        epoch: int,
        inbox_tree: Dict,
    ) -> Iterator[Tuple[object, Optional[FMSketch]]]:
        """One level's T -> M conversions, batched (the engine's wave).

        Every tree payload waiting at one of the level's M nodes — node
        order, then inbox order, chaos duplicates included — goes through
        ONE ``convert_block`` call, its contributing count through one
        ``counted_sketches`` call: the ``(synopsis, count sketch)`` pairs
        :meth:`_prepare_multipath_node` consumes, in its order, each equal
        to the scalar wave's ``convert`` / :meth:`_count_convert`.
        """
        received = [
            payload
            for node in nodes
            if node in inbox_tree and node in layout.multipath
            for payload in inbox_tree[node]
        ]
        if not received:
            return iter(())
        aggregate = self._aggregate
        senders = [payload.sender for payload in received]
        epochs = [epoch] * len(received)
        partials = [payload.partial for payload in received]
        counts = [payload.count for payload in received]
        return zip(
            aggregate.convert_block(partials, senders, epochs),
            repeat(None)
            if aggregate.synopsis_counts_contributors()
            else counted_sketches(
                self._count_bitmaps,
                DEFAULT_BITS,
                ("contrib-conv",),
                counts,
                senders,
                epochs,
            ),
        )

    def _prepare_tree_node(
        self,
        node: NodeId,
        epoch: int,
        readings: ReadingFn,
        inbox_tree: Dict[NodeId, List[TreePayload]],
        partial: Optional[object] = None,
    ) -> TreePayload:
        aggregate = self._aggregate
        if partial is None:
            partial = aggregate.tree_local(node, epoch, readings(node, epoch))
        count = 1
        contributors = 1 << node
        for received in inbox_tree.pop(node, ()):
            partial = aggregate.tree_merge(partial, received.partial)
            count += received.count
            contributors |= received.contributors
        return TreePayload(partial, count, contributors, sender=node)

    def _prepare_multipath_node(
        self,
        layout: WaveLayout,
        node: NodeId,
        epoch: int,
        readings: ReadingFn,
        inbox_tree: Dict[NodeId, List[TreePayload]],
        inbox_syn: Dict[NodeId, List[MultipathPayload]],
        synopsis: Optional[object] = None,
        count_sketch: Optional[FMSketch] = None,
        converted: Optional[Iterator] = None,
    ) -> MultipathPayload:
        aggregate = self._aggregate
        if synopsis is None:
            synopsis = aggregate.synopsis_local(
                node, epoch, readings(node, epoch)
            )
        contributors = 1 << node
        subtree_contributing = 1  # the node's own reading
        missing_stats: Optional[Dict[NodeId, int]] = None
        # Local, then converted, then received — the order the pairwise
        # fold took them in — fused once below.
        synopses = [synopsis]
        sketches = [count_sketch]

        for received in inbox_tree.pop(node, ()):
            if converted is not None:
                # The engine batched this level (:meth:`_convert_level`).
                tree_synopsis, tree_count = next(converted)
            else:
                tree_synopsis = aggregate.convert(
                    received.partial, received.sender, epoch
                )
                if count_sketch is not None:
                    tree_count = self._count_convert(
                        received.count, received.sender, epoch
                    )
            synopses.append(tree_synopsis)
            if count_sketch is not None:
                sketches.append(tree_count)
            contributors |= received.contributors
            subtree_contributing += received.count

        for received in inbox_syn.pop(node, ()):
            synopses.append(received.synopsis)
            if count_sketch is not None and received.count_sketch is not None:
                sketches.append(received.count_sketch)
            contributors |= received.contributors
            # Inlined ``combine_stats``: we own ``missing_stats`` (first hit
            # copies), so later unions can update in place. Insertion order
            # matches the pure-function union exactly.
            received_stats = received.missing_stats
            if received_stats:
                if missing_stats is None:
                    missing_stats = dict(received_stats)
                else:
                    missing_stats.update(received_stats)

        missing = layout.missing(node, subtree_contributing - 1)
        if missing is not None:
            if missing_stats is None:
                missing_stats = {node: missing}
            else:
                missing_stats[node] = missing

        return MultipathPayload(
            aggregate.synopsis_fuse_many(synopses),
            None if count_sketch is None else FMSketch.fuse_many(sketches),
            contributors,
            missing_stats,
        )

    def _level_transmissions(
        self,
        level: Sequence[Transmission],
        outgoing: List[Tuple[bool, object]],
    ) -> List[Transmission]:
        """Size and queue one level's transmissions, in node order.

        Sizing is a pure function of each payload, so hoisting it out of the
        per-node fusion loop changes nothing; the level's M synopses and
        count sketches are each sized in one vectorized RLE pass.
        """
        aggregate = self._aggregate
        m_payloads = [payload for is_tree, payload in outgoing if not is_tree]
        syn_words = iter(
            aggregate.synopsis_words_batch(
                [payload.synopsis for payload in m_payloads]
            )
        )
        sketch_words = iter(
            words_batch(
                [
                    payload.count_sketch
                    for payload in m_payloads
                    if payload.count_sketch is not None
                ]
            )
        )
        transmissions: List[Transmission] = []
        for item, (is_tree, payload) in zip(level, outgoing):
            if is_tree:
                words = self._tree_payload_words
                if words is None:
                    words = (
                        aggregate.tree_words(payload.partial)
                        + payload.extra_words()
                    )
            else:
                words = next(syn_words)
                if payload.count_sketch is not None:
                    words += next(sketch_words)
                if payload.missing_stats:
                    words += missing_stats_words(len(payload.missing_stats))
            transmissions.append(
                Transmission(
                    item.sender,
                    item.receivers,
                    words,
                    self._accountant.spec_for_words(words).messages,
                    item.attempts,
                )
            )
        return transmissions

    def _fold_base_station(
        self,
        layout: WaveLayout,
        epoch: int,
        chaos,
        inbox_tree: Dict[NodeId, List[TreePayload]],
        inbox_syn: Dict[NodeId, List[MultipathPayload]],
    ) -> EpochOutcome:
        """Fold the base station's inboxes and evaluate the epoch."""
        aggregate = self._aggregate
        tree_payloads = inbox_tree.pop(BASE_STATION, [])
        contributors = 0
        exact_count = 0
        for payload in tree_payloads:
            contributors |= payload.contributors
            exact_count += payload.count
        missing_stats: Optional[Dict[NodeId, int]] = None
        delta_payloads = inbox_syn.pop(BASE_STATION, [])
        for payload in delta_payloads:
            contributors |= payload.contributors
            missing_stats = combine_stats(missing_stats, payload.missing_stats)
        synopsis = (
            aggregate.synopsis_fuse_many(
                [payload.synopsis for payload in delta_payloads]
            )
            if delta_payloads
            else None
        )
        sketches = [
            payload.count_sketch
            for payload in delta_payloads
            if payload.count_sketch is not None
        ]
        count_sketch = FMSketch.fuse_many(sketches) if sketches else None
        # The base station has no reading of its own: its tributary count is
        # exactly what its T children delivered.
        missing = layout.missing(BASE_STATION, exact_count)
        if missing is not None:
            missing_stats = combine_stats(missing_stats, {BASE_STATION: missing})
        return self._evaluate_base_station(
            epoch,
            chaos,
            [payload.partial for payload in tree_payloads],
            exact_count,
            synopsis,
            count_sketch,
            contributors.bit_count(),
            missing_stats,
        )
