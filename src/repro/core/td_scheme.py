"""Tributary-Delta: tree tributaries feeding a multi-path delta (Section 3).

One epoch runs both algorithms simultaneously in one ring-level sweep (tree
links are a subset of ring links, so every sender's receiver is exactly one
ring closer to the base station and the shared epoch schedule works
unmodified — the synchronisation design of Section 4.1):

* a **T node** merges its T children's partials and unicasts to its tree
  parent;
* an **M node** fuses its own SG synopsis with received synopses, *converts*
  any tree partials received from T children (Section 5's conversion
  function) and fuses those too, then broadcasts once to all upstream ring
  neighbours — of which the M ones incorporate it (T neighbours ignore M
  broadcasts, preserving edge correctness).

Messages carry the contributing-count piggyback of Section 4.2, and
switchable M nodes attach their subtree's "nodes not contributing" count;
the running max/min of these reach the base station and drive the TD
adaptation strategy.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate, merge_all
from repro.aggregates.grouping import annotate_groups
from repro.aggregates.signal import SignalOnlyAggregate
from repro.aggregates.workload import annotate_workload
from repro.core.adaptation import AdaptationAction, AdaptationPolicy
from repro.core.graph import TDGraph
from repro.core.modes import Mode
from repro.core.payloads import (
    MultipathPayload,
    TreePayload,
    combine_stats,
    missing_stats_words,
)
from repro.datasets.streams import ConstantReadings
from repro.errors import ConfigurationError
from repro.kernels import runs_fused
from repro.kernels.td import precompute_conversions, refusal, run_td_block
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
from repro.network.simulator import (
    EpochOutcome,
    ReadingFn,
    exact_over,
    gather_readings,
    run_epochs_scalar,
)


class TributaryDeltaScheme:
    """The combined scheme with runtime delta adaptation."""

    def __init__(
        self,
        deployment: Deployment,
        graph: TDGraph,
        aggregate: Aggregate,
        policy: Optional[AdaptationPolicy] = None,
        tree_attempts: int = 1,
        multipath_attempts: int = 1,
        count_bitmaps: int = 40,
        accountant: Optional[MessageAccountant] = None,
        name: str = "TD",
        use_batch: bool = True,
    ) -> None:
        if tree_attempts < 1 or multipath_attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        self._deployment = deployment
        self._graph = graph
        self._bind_aggregate(aggregate)
        self._policy = policy
        self._tree_attempts = tree_attempts
        self._multipath_attempts = multipath_attempts
        self._count_bitmaps = count_bitmaps
        self._accountant = accountant or MessageAccountant()
        self._use_batch = use_batch
        self._engine_path: Optional[str] = None
        # Block-scoped cache, live only inside the object :meth:`run_epochs`:
        # per-node :meth:`_missing_entry` lookups.
        self._missing_cache: Optional[Dict] = None
        self.name = name
        # Rings are static between membership changes (only modes adapt
        # within one): precompute the per-level schedule, each node's
        # broadcast audience, and the flattened parent lookup.
        self._rebuild_schedule()
        # Ground-truth population; shrinks/grows under node churn.
        self._alive_sensors = list(deployment.sensor_ids)
        #: (epoch, action kind, number of nodes switched) per adaptation call.
        self.adaptation_log: List[Tuple[int, str, int]] = []
        #: Cumulative base-station control messages spent on adaptation.
        self.control_messages = 0

    def _bind_aggregate(self, aggregate: Aggregate) -> None:
        """Carry ``aggregate`` on the wire from the next block on."""
        self._aggregate = aggregate
        # Additive partials have a constant wire size (the ``tree_words``
        # contract behind the fused TAG kernel), so tree payloads can be
        # sized once instead of per node per epoch.
        self._tree_payload_words: Optional[int] = (
            int(aggregate.tree_words(aggregate.tree_empty())) + 1
            if aggregate.tree_partials_additive()
            else None
        )

    @contextmanager
    def signal_only(self, readings: ReadingFn) -> Iterator[ReadingFn]:
        """Run the enclosed epochs carrying nothing but the adaptation signal.

        Adaptation (Section 4.2) reads the %-contributing estimate and the
        per-subtree "nodes not contributing" counts; both ride the
        contributing-count piggyback, the exact tree counts and the static
        layout, and delivery draws never look at a payload. So a warm-up
        whose answers nobody records swaps the query payload for
        :class:`~repro.aggregates.signal.SignalOnlyAggregate` and adapts
        exactly as it would have under the real aggregate. Yields the
        readings to drive the wave with: a constant while swapped, so no
        sensor stream is evaluated either. The real aggregate is back on
        any exit.

        Plain ``count`` is the exception: its synopsis *is* the contributing
        count (no piggyback travels, and it is keyed ``"count"`` rather than
        ``"contrib"``), so it keeps carrying itself over ``readings``.
        """
        real = self._aggregate
        if real.synopsis_counts_contributors():
            yield readings
            return
        self._bind_aggregate(SignalOnlyAggregate())
        try:
            yield ConstantReadings(0.0)
        finally:
            self._bind_aggregate(real)

    def _rebuild_schedule(self) -> None:
        """Recompute level schedule, audiences and parents from the graph."""
        rings = self._graph.rings
        self._level_nodes = [
            rings.nodes_at_level(level) for level in rings.levels_descending()
        ]
        self._upstream = {
            node: tuple(rings.upstream_neighbors(node))
            for nodes in self._level_nodes
            for node in nodes
        }
        self._tree_parents = dict(self._graph.tree.parents)

    def on_membership_change(self, update) -> None:
        """Rebuild the T/M graph over the repaired topology after churn.

        Surviving nodes keep their mode wherever edge correctness allows:
        walking the new rings top-down (level order), a node stays M only
        while its repaired tree parent is M — a T-parented survivor (its
        old M parent died, or repair moved it under a tributary) is demoted
        to T, which keeps the delta tree-ancestor-closed (Property 1) by
        construction. Joining nodes come back as T leaves; the adaptation
        policy re-expands the delta over them if loss warrants it.
        """
        rings = update.rings
        tree = update.tree
        old_modes = self._graph.modes()
        new_modes: Dict[NodeId, Mode] = {}
        for node in sorted(rings.levels, key=lambda n: (rings.level(n), n)):
            mode = old_modes.get(node, Mode.TREE)
            if mode.is_multipath and node != tree.root:
                parent = tree.parent(node)
                if parent is None or not new_modes[parent].is_multipath:
                    mode = Mode.TREE
            new_modes[node] = mode
        self._graph = TDGraph(rings, tree, new_modes)
        self._rebuild_schedule()
        self._alive_sensors = update.alive_sensors()

    @property
    def graph(self) -> TDGraph:
        return self._graph

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
        """Latency proxy: the shared ring depth (tree links follow rings)."""
        return self._graph.rings.depth

    # -- helpers ---------------------------------------------------------

    def _count_convert(self, count: int, sender: NodeId, epoch: int) -> FMSketch:
        """Convert an exact tree contributing-count into an FM sketch."""
        sketch = FMSketch(self._count_bitmaps)
        sketch.insert_count(count, "contrib-conv", sender, epoch)
        return sketch

    def _contrib_sketch(self, node: NodeId, epoch: int) -> Optional[FMSketch]:
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

    def _plan_levels(self) -> List[List[Transmission]]:
        """The transmission structure under the graph's *current* modes.

        Valid for one adaptation interval: mode switches (T <-> M) change
        who unicasts versus broadcasts, so every adaptation invalidates the
        plan built from this structure.
        """
        graph = self._graph
        levels: List[List[Transmission]] = []
        for nodes in self._level_nodes:
            items: List[Transmission] = []
            for node in nodes:
                if graph.is_tree(node):
                    items.append(
                        Transmission(
                            node,
                            (self._tree_parents.get(node),),
                            0,
                            1,
                            self._tree_attempts,
                        )
                    )
                else:
                    items.append(
                        Transmission(
                            node,
                            self._upstream[node],
                            0,
                            1,
                            self._multipath_attempts,
                        )
                    )
            levels.append(items)
        return levels

    def _tributary_missing(
        self, node: NodeId, tributary_contributing: int
    ) -> Optional[int]:
        """Nodes missing from ``node``'s tributaries this epoch, or None.

        An M node at the tributary/delta boundary reports how many of its
        tree descendants did not contribute: the static total of its T
        children's subtree sizes minus the counts actually received. Each T
        child is the root of a unique subtree (path correctness), so there
        is no double-counting — the paper's footnote 3 argument.
        Switchable M nodes always report (their subtree missing equals their
        tributary missing), so the shrink rule can find the quiet tips;
        interior delta nodes without tributaries report nothing.
        """
        cache = self._missing_cache
        entry = cache.get(node) if cache is not None else None
        if entry is None:
            entry = self._missing_entry(node)
            if cache is not None:
                cache[node] = entry
        expected, switchable = entry
        if expected == 0:
            return 0 if switchable else None
        return max(0, expected - tributary_contributing)

    def _missing_entry(self, node: NodeId) -> Tuple[int, bool]:
        """The mode-dependent half of :meth:`_tributary_missing`.

        ``(expected, switchable)``: the static size of ``node``'s tributary
        subtrees, and — only looked at when that is 0 — whether ``node`` is
        a switchable M vertex. Fixed while modes are, i.e. for a block; the
        node reports a statistic iff ``expected > 0 or switchable``.
        """
        graph = self._graph
        expected = sum(
            graph.subtree_size(child)
            for child in graph.tree_children(node)
            if graph.is_tree(child)
        )
        switchable = graph.is_switchable_m(node) if expected == 0 else False
        return expected, switchable

    def _convert_frontier(self, partials, counts, senders, epochs):
        """A block's T -> M conversions as packed rows, for the kernel.

        Resolved through this module's ``precompute_conversions`` attribute
        on every call: that name is the conversion stage's tracing seam.
        """
        return precompute_conversions(
            self._aggregate, self._count_bitmaps, partials, counts, senders, epochs
        )

    # -- one epoch ---------------------------------------------------------

    def run_epoch(
        self, epoch: int, channel: Channel, readings: ReadingFn
    ) -> EpochOutcome:
        """The scalar reference wave: one node, one draw at a time."""
        return self._run_wave(epoch, channel, readings, None, None)

    def run_epochs(
        self, epochs: Sequence[int], channel: Channel, readings: ReadingFn
    ) -> List[Tuple[EpochOutcome, TransmissionLog]]:
        """Run a block of epochs against one precomputed delivery plan.

        Modes are fixed for the whole block (the simulator adapts only at
        block boundaries). Eligible blocks run as the fused array kernel
        (:func:`repro.kernels.td.run_td_block`); the rest run object waves
        over locals built in one vectorized pass per level up front. Either
        way the per-epoch (outcome, log) pairs are identical to looping
        :meth:`run_epoch`, which is what ``use_batch=False`` does.
        """
        epoch_list = [int(epoch) for epoch in epochs]
        if not self._use_batch:
            self._engine_path = "object: use_batch=False"
            return run_epochs_scalar(self, epoch_list, channel, readings)
        if runs_fused(self, channel, refusal):
            return run_td_block(self, epoch_list, channel, readings)
        graph = self._graph
        plan = channel.plan_epochs(self._plan_levels(), epoch_list)
        level_m_nodes = []
        level_t_nodes = []
        for nodes in self._level_nodes:
            level_m_nodes.append(
                [node for node in nodes if not graph.is_tree(node)]
            )
            level_t_nodes.append(
                [node for node in nodes if graph.is_tree(node)]
            )
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
        self._missing_cache = {}
        results: List[Tuple[EpochOutcome, TransmissionLog]] = []
        try:
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
                    epoch, channel, readings, locals_by_level, plan
                )
                results.append((outcome, channel.reset_log()))
        finally:
            self._missing_cache = None
        return results

    def _run_wave(
        self,
        epoch: int,
        channel: Channel,
        readings: ReadingFn,
        locals_by_level: Optional[List[Tuple[Dict, Dict, Dict]]],
        plan: Optional[DeliveryPlan],
    ) -> EpochOutcome:
        graph = self._graph
        inbox_tree: Dict[NodeId, List[TreePayload]] = {}
        inbox_syn: Dict[NodeId, List[MultipathPayload]] = {}

        for index, nodes in enumerate(self._level_nodes):
            # The engine hands the whole level's precomputed locals in (tree
            # links point one ring up, so nothing in this level feeds
            # anything else in it — level-synchronous batching is exact);
            # the scalar wave finds nothing here and computes per node.
            scalar = locals_by_level is None
            synopses, count_sketches, tree_partials = (
                ({}, {}, {}) if scalar else locals_by_level[index]
            )

            converted = (
                None if scalar else self._convert_level(nodes, epoch, inbox_tree)
            )
            outgoing: List[Tuple[bool, object, object]] = []
            for node in nodes:
                if graph.is_tree(node):
                    payload = self._prepare_tree_node(
                        node,
                        epoch,
                        readings,
                        inbox_tree,
                        tree_partials.get(node),
                    )
                    outgoing.append(
                        (True, self._tree_parents.get(node), payload)
                    )
                else:
                    if scalar:
                        count_sketch = self._contrib_sketch(node, epoch)
                    else:
                        count_sketch = count_sketches.get(node)
                    payload = self._prepare_multipath_node(
                        node,
                        epoch,
                        readings,
                        inbox_tree,
                        inbox_syn,
                        synopses.get(node),
                        count_sketch,
                        converted,
                    )
                    outgoing.append((False, None, payload))
            transmissions = self._level_transmissions(nodes, outgoing)

            if plan is not None:
                heard_lists = channel.transmit_epochs(
                    transmissions, epoch, plan, index
                )
            else:
                heard_lists = transmit_sequential(channel, transmissions, epoch)

            chaos = channel.chaos
            for node, (is_tree, parent, payload), heard in zip(
                nodes, outgoing, heard_lists
            ):
                if is_tree:
                    if heard:
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
                        if graph.is_multipath(receiver):
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
        return self._fold_base_station(inbox_tree, inbox_syn)

    def _convert_level(
        self, nodes: Sequence[NodeId], epoch: int, inbox_tree: Dict
    ) -> Iterator[Tuple[object, Optional[FMSketch]]]:
        """One level's T -> M conversions, batched (the engine's wave).

        Every tree payload waiting at one of the level's M nodes — node
        order, then inbox order, chaos duplicates included — goes through
        ONE ``convert_block`` call, its contributing count through one
        ``counted_sketches`` call: the ``(synopsis, count sketch)`` pairs
        :meth:`_prepare_multipath_node` consumes, in its order, each equal
        to the scalar wave's ``convert`` / :meth:`_count_convert`.
        """
        graph = self._graph
        received = [
            payload
            for node in nodes
            if node in inbox_tree and not graph.is_tree(node)
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

        missing = self._tributary_missing(node, subtree_contributing - 1)
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
        nodes: List[NodeId],
        outgoing: List[Tuple[bool, object, object]],
    ) -> List[Transmission]:
        """Size and queue one level's transmissions, in node order.

        Sizing is a pure function of each payload, so hoisting it out of the
        per-node fusion loop changes nothing; the level's M synopses and
        count sketches are each sized in one vectorized RLE pass.
        """
        aggregate = self._aggregate
        m_payloads = [
            payload for is_tree, _, payload in outgoing if not is_tree
        ]
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
        for node, (is_tree, _, payload) in zip(nodes, outgoing):
            if is_tree:
                words = self._tree_payload_words
                if words is None:
                    words = (
                        aggregate.tree_words(payload.partial)
                        + payload.extra_words()
                    )
                spec = self._accountant.spec_for_words(words)
                transmissions.append(
                    Transmission(
                        node,
                        (self._tree_parents.get(node),),
                        words,
                        spec.messages,
                        self._tree_attempts,
                    )
                )
            else:
                words = next(syn_words)
                if payload.count_sketch is not None:
                    words += next(sketch_words)
                if payload.missing_stats:
                    words += missing_stats_words(len(payload.missing_stats))
                spec = self._accountant.spec_for_words(words)
                transmissions.append(
                    Transmission(
                        node,
                        self._upstream[node],
                        words,
                        spec.messages,
                        self._multipath_attempts,
                    )
                )
        return transmissions

    def _fold_base_station(
        self,
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
        if self._graph.is_multipath(BASE_STATION):
            # The base station has no reading of its own: its tributary
            # count is exactly what its T children delivered.
            missing = self._tributary_missing(BASE_STATION, exact_count)
            if missing is not None:
                missing_stats = combine_stats(
                    missing_stats, {BASE_STATION: missing}
                )
        return self._evaluate_base_station(
            [payload.partial for payload in tree_payloads],
            exact_count,
            synopsis,
            count_sketch,
            contributors.bit_count(),
            missing_stats,
        )

    def _evaluate_base_station(
        self,
        partials: List[object],
        exact_count: int,
        synopsis: Optional[object],
        count_sketch: Optional[FMSketch],
        contributing: int,
        missing_stats: Optional[Dict[NodeId, int]],
    ) -> EpochOutcome:
        """The epoch's outcome from what reached the base station.

        Shared by the object wave and the fused kernel. ``partials`` are
        the tree partials delivered straight to the base (``exact_count``
        their summed contributing counts), ``synopsis`` / ``count_sketch``
        the fused delta payloads (None when none arrived — always, for a
        T-mode base), ``contributing`` the ground-truth contributor count
        and ``missing_stats`` the statistics an M-mode base collected.
        """
        aggregate = self._aggregate
        extra: Dict[str, object] = dict(self._graph.delta_summary())
        extra["latency_epochs"] = self.latency_epochs
        tree_base = self._graph.is_tree(BASE_STATION)
        if not tree_base:
            extra["missing_stats"] = missing_stats
        if synopsis is None and not partials:
            return EpochOutcome(
                0.0,
                0,
                0.0,
                annotate_groups(
                    aggregate,
                    annotate_workload(aggregate, extra, empty=True),
                    empty=True,
                ),
            )
        if tree_base:
            # All-tree configuration: behave exactly like TAG's root.
            estimate = aggregate.tree_eval(merge_all(aggregate, partials))
        else:
            # M-mode base station: keep direct tree partials exact (they
            # are disjoint from everything the delta saw) and fuse only the
            # delta's synopses; the aggregate's mixed evaluation combines
            # both.
            estimate = aggregate.mixed_eval(partials, synopsis)
        extra = annotate_groups(aggregate, annotate_workload(aggregate, extra))
        if tree_base:
            contributing_estimate = float(exact_count)
        elif aggregate.synopsis_counts_contributors():
            sketch_count = synopsis and aggregate.synopsis_eval(synopsis) or 0.0
            contributing_estimate = exact_count + sketch_count
        elif count_sketch is not None:
            contributing_estimate = exact_count + count_sketch.estimate()
        else:
            contributing_estimate = float(exact_count)
        return EpochOutcome(
            estimate=estimate,
            contributing=contributing,
            contributing_estimate=contributing_estimate,
            extra=extra,
        )

    # -- simulator interface -----------------------------------------------

    def exact_answer(self, epoch: int, readings: ReadingFn) -> float:
        return exact_over(self._aggregate, readings, self._alive_sensors, epoch)

    def adapt(self, epoch: int, outcome: EpochOutcome) -> None:
        """Apply the adaptation policy (called every adapt interval)."""
        if self._policy is None:
            return
        action = self._policy.adjust(
            self._graph, outcome, self._deployment.num_sensors
        )
        self._graph.validate()
        self.adaptation_log.append((epoch, action.kind, len(action.switched)))
        self.control_messages += action.control_messages
