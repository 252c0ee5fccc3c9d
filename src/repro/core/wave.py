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

Messages carry the contributing-count piggyback of Section 4.2 — a
:class:`~repro.aggregates.count.ContributingCount` slot beside the query's,
unless the query's own synopsis counts its contributors — and the layout's
*reporters* attach their tributaries' "nodes not contributing" count. TAG's
layout is all T over its tree's levels, SD's all M over the rings, TD's
whatever its graph says this block. Each scheme builds its layout and names
its record fields; :class:`LayoutWave` evaluates the base station (TD's
mixed evaluation, which is TAG's answer at a T-mode base and SD's over an
all-M layout) and runs the rest — the fused kernel
(:func:`repro.kernels.td.run_td_block`) when
:func:`repro.kernels.td.refusal` lets it, else the object wave in the
kernel's three stages (tributaries, one frontier conversion per block, the
delta), and under ``use_batch=False`` the scalar oracle, one node and one
draw at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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

from repro.aggregates.base import Aggregate, merge_all
from repro.aggregates.count import ContributingCount
from repro.core.payloads import (
    MultipathPayload,
    TreePayload,
    combine_stats,
    missing_stats_words,
)
from repro.kernels.td import refusal
from repro.multipath.fm import FMSketch
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
    gather_reading_block,
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
    """``extra`` with the aggregate's per-epoch estimate extras."""
    extra.update(aggregate.estimate_extras(empty))
    return extra


def empty_outcome(aggregate: Aggregate, extra: Dict[str, object]) -> EpochOutcome:
    """The outcome of an epoch in which nothing reached the base station."""
    return EpochOutcome(0.0, 0, 0.0, outcome_extra(aggregate, extra, empty=True))


def _deliver_tree(
    inbox_tree: Dict[NodeId, List[TreePayload]],
    payload: TreePayload,
    parent: NodeId,
    epoch: int,
    chaos,
) -> None:
    """Land a heard tree unicast in its parent's inbox (twice if replayed)."""
    target = inbox_tree.setdefault(parent, [])
    target.append(payload)
    if chaos is not None and chaos.duplicate(payload.sender, parent, epoch):
        target.append(payload)


class LayoutWave:
    """The wave TAG, SD and TD share, and its three engines.

    A subclass provides :meth:`_wave_layout` (its current labelling) and
    :meth:`_outcome_extra` (its record fields), and drives
    :meth:`_run_blocks` / :meth:`_run_wave` from its own ``run_epochs`` /
    ``run_epoch``.
    """

    #: Whether an M-mode base station audits its contributing-count sketch
    #: (``fm-or-monotonicity``). Exact only where that sketch is a pure
    #: OR-fold of single-item insertions: no tree count was converted into
    #: it, which only SD's all-M layout guarantees.
    _audits_contributing_sketch = False

    def __init__(
        self,
        deployment: Deployment,
        aggregate: Aggregate,
        use_batch: bool,
        name: str,
    ) -> None:
        self._deployment = deployment
        #: The Section 4.2 piggyback; :meth:`_bind_aggregate` decides whether
        #: it travels.
        self._contributing = ContributingCount()
        self._bind_aggregate(aggregate)
        self._accountant = MessageAccountant()
        self._use_batch = use_batch
        self._engine_path: Optional[str] = None
        self.name = name
        # Ground-truth population; shrinks/grows under node churn.
        self._alive_sensors = list(deployment.sensor_ids)

    def _bind_aggregate(self, aggregate: Aggregate) -> None:
        """Carry ``aggregate`` on the wire from the next block on."""
        self._aggregate = aggregate
        #: The contributing count's own slot, or None when the aggregate's
        #: synopsis already counts its contributors (Count).
        self._piggyback: Optional[ContributingCount] = (
            None
            if aggregate.synopsis_counts_contributors()
            else self._contributing
        )
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

    def _outcome_extra(
        self, layout: WaveLayout, missing_stats: Optional[Dict[NodeId, int]]
    ) -> Dict[str, object]:
        """The scheme's own fields of an epoch record."""
        raise NotImplementedError

    def _evaluate_base_station(
        self,
        layout: WaveLayout,
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

        A T-mode base merges its partials and counts exactly (TAG's root).
        An M-mode base keeps direct tree partials exact — they are disjoint
        from everything the delta saw — and lets the aggregate's mixed
        evaluation combine them with the fused synopsis; its contributing
        estimate adds the exact count to the sketch that counts
        contributors: the piggyback, or the query's own Count synopsis.
        """
        aggregate = self._aggregate
        extra = self._outcome_extra(layout, missing_stats)
        if synopsis is None and not partials:
            return empty_outcome(aggregate, extra)
        contributing_estimate = float(exact_count)
        if BASE_STATION not in layout.multipath:
            estimate = aggregate.tree_eval(merge_all(aggregate, partials))
        else:
            estimate = aggregate.mixed_eval(partials, synopsis)
            counter, sketch = (
                (aggregate, synopsis)
                if self._piggyback is None
                else (self._piggyback, count_sketch)
            )
            if sketch is not None:
                if (
                    self._audits_contributing_sketch
                    and chaos is not None
                    and chaos.auditor is not None
                ):
                    chaos.auditor.check_contrib_sketch(
                        sketch, counter, self._alive_sensors, epoch
                    )
                contributing_estimate = exact_count + counter.synopsis_eval(
                    sketch
                )
        return EpochOutcome(
            estimate=estimate,
            contributing=contributing,
            contributing_estimate=contributing_estimate,
            extra=outcome_extra(aggregate, extra),
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
        the object wave, staged block-wide by :meth:`_stage_block` and then
        one delta per epoch. Either way the per-epoch (outcome, log) pairs are
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
        stages = self._stage_block(layout, epoch_list, channel, readings, plan)
        results: List[Tuple[EpochOutcome, TransmissionLog]] = []
        for column, epoch in enumerate(epoch_list):
            channel.reset_log()
            # Each epoch's staged state is released as the delta consumes it.
            staged, stages[column] = stages[column], None
            outcome = self._run_wave(layout, epoch, channel, readings, staged, plan)
            results.append((outcome, channel.reset_log()))
        return results

    def _stage_block(
        self,
        layout: WaveLayout,
        epoch_list: List[int],
        channel: Channel,
        readings: ReadingFn,
        plan: DeliveryPlan,
    ) -> List[Tuple[Iterator, Iterator, Iterator, Dict, Iterator]]:
        """The object wave's first two stages, in the fused kernel's order
        (:func:`~repro.kernels.td.run_td_block`).

        Locals are built once per block: one ``synopsis_local_block`` per
        slot (the query's, then the piggyback's) over every M node, one
        ``tree_local_block`` over every T node (each cell is a pure function
        of ``(node, epoch, reading)``). Then:

        1. **Tributaries.** Property 1 (no M -> T edge) means a tributary
           never waits on the delta, so every epoch's T senders run first,
           deepest level first, and their payloads land straight from the
           plan's success table (chaos replays included). Nothing is billed:
           the delta stage transmits these payloads.
        2. **The frontier converts once.** Every payload delivered to a
           non-base M node, in (epoch, level, node, inbox) order, goes
           through ONE ``convert_block`` call, and its count through the
           piggyback's.

        Returns per epoch the ``(synopses, count sketches, T payloads, tree
        inboxes, conversions)`` that :meth:`_run_wave` consumes: iterators
        in the order its wave visits the M nodes, the T nodes, and the M
        nodes' tree inboxes.
        """
        aggregate = self._aggregate
        piggyback = self._piggyback
        multipath = layout.multipath
        chaos = channel.chaos
        nodes = [node for level in layout.level_nodes for node in level]
        m_nodes = [node for node in nodes if node in multipath]
        t_nodes = [node for node in nodes if node not in multipath]
        synopses = aggregate.synopsis_local_block(
            m_nodes, epoch_list, gather_reading_block(readings, m_nodes, epoch_list)
        )
        sketches = (
            [[None] * len(m_nodes) for _ in epoch_list]
            if piggyback is None
            # The piggyback's Count reads no reading.
            else piggyback.synopsis_local_block(m_nodes, epoch_list, None)
        )
        partials = aggregate.tree_local_block(
            t_nodes, epoch_list, gather_reading_block(readings, t_nodes, epoch_list)
        )

        # Per level: its T senders and their (epochs,) delivery flags. A tree
        # unicast has exactly one planned pair, to its parent.
        tributaries = []
        for index, level in enumerate(layout.levels):
            success, spans, _ = plan.level_table(channel, index, level)
            tree = [i for i, item in enumerate(level) if item.sender not in multipath]
            flags = success[[spans[i][0] for i in tree]].tolist()
            tributaries.append([(level[i], row) for i, row in zip(tree, flags)])

        stages = []
        sizes = []
        frontier: List[TreePayload] = []
        frontier_epochs: List[int] = []
        for column, epoch in enumerate(epoch_list):
            # A merged local is garbage once its epoch's tributaries ran.
            local = iter(partials[column])
            partials[column] = None
            payloads: List[TreePayload] = []
            inbox_tree: Dict[NodeId, List[TreePayload]] = {}
            for level in tributaries:
                for item, delivered in level:
                    payload = self._prepare_tree_node(
                        item.sender, epoch, readings, inbox_tree, next(local)
                    )
                    payloads.append(payload)
                    if delivered[column]:
                        _deliver_tree(
                            inbox_tree, payload, item.receivers[0], epoch, chaos
                        )
            received = [
                payload for node in m_nodes for payload in inbox_tree.get(node, ())
            ]
            frontier.extend(received)
            frontier_epochs.extend([epoch] * len(received))
            sizes.append(len(received))
            stages.append(
                (
                    iter(synopses[column]),
                    iter(sketches[column]),
                    iter(payloads),
                    inbox_tree,
                )
            )

        synopses_conv = counts_conv = [None] * len(frontier)
        if frontier:
            senders = [payload.sender for payload in frontier]
            synopses_conv = aggregate.convert_block(
                [payload.partial for payload in frontier], senders, frontier_epochs
            )
            if piggyback is not None:
                counts_conv = piggyback.convert_block(
                    [payload.count for payload in frontier],
                    senders,
                    frontier_epochs,
                )
        start = 0
        for column, size in enumerate(sizes):
            stop = start + size
            stages[column] += (
                zip(synopses_conv[start:stop], counts_conv[start:stop]),
            )
            start = stop
        return stages

    # -- one epoch ---------------------------------------------------------

    def _run_wave(
        self,
        layout: WaveLayout,
        epoch: int,
        channel: Channel,
        readings: ReadingFn,
        staged: Optional[Tuple[Iterator, Iterator, Iterator, Dict, Iterator]],
        plan: Optional[DeliveryPlan],
    ) -> EpochOutcome:
        """One epoch's wave: the scalar oracle, or the object wave's delta.

        ``staged`` is None for the oracle, which computes and delivers every
        payload node by node. Otherwise it is one epoch of
        :meth:`_stage_block`: T senders transmit the payloads stage 1 built
        and already delivered, and M nodes fuse their precomputed locals and
        consume the block's conversions in order.
        """
        multipath = layout.multipath
        piggyback = self._piggyback
        scalar = staged is None
        if scalar:
            inbox_tree: Dict[NodeId, List[TreePayload]] = {}
            converted = None
        else:
            synopses, count_sketches, tree_payloads, inbox_tree, converted = staged
        inbox_syn: Dict[NodeId, List[MultipathPayload]] = {}
        chaos = channel.chaos

        for index, level in enumerate(layout.levels):
            outgoing: List[Tuple[bool, object]] = []
            for item in level:
                node = item.sender
                if node not in multipath:
                    if scalar:
                        payload = self._prepare_tree_node(
                            node, epoch, readings, inbox_tree
                        )
                    else:
                        payload = next(tree_payloads)
                    outgoing.append((True, payload))
                else:
                    if scalar:
                        synopsis = None
                        count_sketch = (
                            None
                            if piggyback is None
                            else piggyback.synopsis_local(node, epoch, None)
                        )
                    else:
                        synopsis = next(synopses)
                        count_sketch = next(count_sketches)
                    payload = self._prepare_multipath_node(
                        layout,
                        node,
                        epoch,
                        readings,
                        inbox_tree,
                        inbox_syn,
                        synopsis,
                        count_sketch,
                        converted,
                    )
                    outgoing.append((False, payload))
            transmissions = self._level_transmissions(level, outgoing)

            if plan is not None:
                # Stage 1 validated every level against the plan.
                heard_lists = channel.transmit_epochs(
                    transmissions, epoch, plan, index, checked=True
                )
            else:
                heard_lists = transmit_sequential(channel, transmissions, epoch)

            for item, (is_tree, payload), heard in zip(
                level, outgoing, heard_lists
            ):
                node = item.sender
                if is_tree:
                    if heard and scalar:
                        _deliver_tree(
                            inbox_tree, payload, item.receivers[0], epoch, chaos
                        )
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
        piggyback = self._piggyback
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
                # The block's one frontier conversion (:meth:`_stage_block`).
                tree_synopsis, tree_count = next(converted)
            else:
                tree_synopsis = aggregate.convert(
                    received.partial, received.sender, epoch
                )
                if piggyback is not None:
                    tree_count = piggyback.convert(
                        received.count, received.sender, epoch
                    )
            synopses.append(tree_synopsis)
            if piggyback is not None:
                sketches.append(tree_count)
            contributors |= received.contributors
            subtree_contributing += received.count

        for received in inbox_syn.pop(node, ()):
            synopses.append(received.synopsis)
            if piggyback is not None:
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
            None if piggyback is None else piggyback.synopsis_fuse_many(sketches),
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
        piggyback = self._piggyback
        m_payloads = [payload for is_tree, payload in outgoing if not is_tree]
        syn_words = iter(
            aggregate.synopsis_words_batch(
                [payload.synopsis for payload in m_payloads]
            )
        )
        if piggyback is not None:
            sketch_words = iter(
                piggyback.synopsis_words_batch(
                    [payload.count_sketch for payload in m_payloads]
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
                if piggyback is not None:
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
        synopsis = count_sketch = None
        if delta_payloads:
            synopsis = aggregate.synopsis_fuse_many(
                [payload.synopsis for payload in delta_payloads]
            )
            if self._piggyback is not None:
                count_sketch = self._piggyback.synopsis_fuse_many(
                    [payload.count_sketch for payload in delta_payloads]
                )
        # The base station has no reading of its own: its tributary count is
        # exactly what its T children delivered.
        missing = layout.missing(BASE_STATION, exact_count)
        if missing is not None:
            missing_stats = combine_stats(missing_stats, {BASE_STATION: missing})
        return self._evaluate_base_station(
            layout,
            epoch,
            chaos,
            [payload.partial for payload in tree_payloads],
            exact_count,
            synopsis,
            count_sketch,
            contributors.bit_count(),
            missing_stats,
        )
