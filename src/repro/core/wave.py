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
all-M layout) and runs the rest on one of two engines: the fused kernel
(:func:`repro.kernels.td.run_td_block`), or — under ``use_batch=False``
and whenever chaos is attached — the scalar oracle, one node and one draw
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    AbstractSet, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple
)

import numpy as np

from repro.aggregates.base import Aggregate, merge_all
from repro.aggregates.count import ContributingCount
from repro.core.payloads import (
    MultipathPayload,
    TreePayload,
    combine_stats,
    missing_stats_words,
)
from repro.errors import PropertyViolation
from repro.multipath.fm import FMSketch
from repro.network.links import (
    Channel,
    DeliveryStructure,
    Transmission,
    TransmissionLog,
    transmit_sequential,
)
from repro.network.messages import MessageAccountant
from repro.network.placement import BASE_STATION, Deployment, NodeId
from repro.network.rings import RingsTopology
from repro.network.simulator import EpochOutcome, ReadingFn, run_epochs_scalar


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

        A T node unicasts to ``parents[node]``; an M node broadcasts to
        ``audiences[node]``. A T node without a tree parent has no path to
        the base station, and is refused (Property 2).
        """
        multipath = frozenset(multipath)
        for nodes in level_nodes:
            for node in nodes:
                if node not in multipath and parents.get(node) is None:
                    raise PropertyViolation(
                        f"T node {node} has no tree parent",
                        invariant="path-correctness",
                        nodes=(node,),
                    )
        levels = tuple(
            tuple(
                Transmission(node, audiences[node], 0, 1, multipath_attempts)
                if node in multipath
                else Transmission(node, (parents[node],), 0, 1, tree_attempts)
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

    @cached_property
    def delivery(self) -> DeliveryStructure:
        """The layout's delivery structure, built on first use and drawn
        against by every block that runs this layout: its rows follow the
        wave order — level after level, deepest first, then the base
        station."""
        return DeliveryStructure(self.levels)

    @cached_property
    def reporter_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The reporters' rows of :attr:`delivery`, ascending, and each
        one's expected tributary count."""
        reporters = self.reporters
        nodes = self.delivery.senders.tolist()
        rows = [row for row, node in enumerate(nodes) if node in reporters]
        return (
            np.asarray(rows, dtype=np.int64),
            np.asarray([reporters[nodes[row]] for row in rows], dtype=np.int64),
        )

    @cached_property
    def multipath_rows(self) -> np.ndarray:
        """Per row of :attr:`delivery`, whether its node is M."""
        multipath = self.multipath
        nodes = self.delivery.nodes.tolist()
        return np.fromiter(
            (node in multipath for node in nodes), dtype=bool, count=len(nodes)
        )

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


class LayoutWave:
    """The wave TAG, SD and TD share, and its two engines.

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
        # A declared FM or extremum column has a constant tree wire size
        # (the ``tree_words`` contract behind the fused kernel's tributary
        # pass), so tree payloads can be sized once instead of per node per
        # epoch.
        self._tree_payload_words: Optional[int] = (
            int(aggregate.tree_words(aggregate.tree_empty())) + 1
            if aggregate.column() is not None
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

        Shared by the oracle and the fused kernel. ``partials`` are the tree
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
        """Run a block of epochs on one of the two engines.

        The layout is fixed for the whole block (the simulator adapts only
        at block boundaries), and a block runs as ``kernel`` — the calling
        scheme module's binding of :func:`~repro.kernels.td.run_td_block`,
        looked up there on every call so that each scheme's name stays a
        tracing seam. Under ``use_batch=False``, or with chaos attached (a
        fault plan or an auditor hooks every delivery), it runs the scalar
        oracle instead: the scheme's ``run_epoch`` once per epoch. Either
        way the per-epoch (outcome, log) pairs are the same.
        """
        epoch_list = [int(epoch) for epoch in epochs]
        if not self._use_batch:
            self._engine_path = "object: use_batch=False"
        elif channel.chaos is not None:
            self._engine_path = "object: chaos attached"
        else:
            self._engine_path = "fused"
            return kernel(self, self._wave_layout(), epoch_list, channel, readings)
        return run_epochs_scalar(self, epoch_list, channel, readings)

    # -- one epoch ---------------------------------------------------------

    def _run_wave(
        self, layout: WaveLayout, epoch: int, channel: Channel, readings: ReadingFn
    ) -> EpochOutcome:
        """One epoch's wave, one node and one draw at a time: the oracle.

        Every payload is built, sized, transmitted and delivered node by
        node, level by level, through the channel's per-level
        :func:`~repro.network.links.transmit_sequential` and the chaos
        runtime's corrupt / duplicate hooks.
        """
        multipath = layout.multipath
        inbox_tree: Dict[NodeId, List[TreePayload]] = {}
        inbox_syn: Dict[NodeId, List[MultipathPayload]] = {}
        chaos = channel.chaos

        for level in layout.levels:
            outgoing: List[Tuple[bool, object]] = []
            for item in level:
                node = item.sender
                if node not in multipath:
                    payload = self._prepare_tree_node(
                        node, epoch, readings, inbox_tree
                    )
                    outgoing.append((True, payload))
                else:
                    payload = self._prepare_multipath_node(
                        layout, node, epoch, readings, inbox_tree, inbox_syn
                    )
                    outgoing.append((False, payload))
            heard_lists = transmit_sequential(
                channel, self._level_transmissions(level, outgoing), epoch
            )

            for item, (is_tree, payload), heard in zip(
                level, outgoing, heard_lists
            ):
                node = item.sender
                if is_tree:
                    if heard:
                        # Lands in its parent's inbox (twice if replayed).
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
        return self._fold_base_station(layout, epoch, chaos, inbox_tree, inbox_syn)

    def _prepare_tree_node(
        self,
        node: NodeId,
        epoch: int,
        readings: ReadingFn,
        inbox_tree: Dict[NodeId, List[TreePayload]],
    ) -> TreePayload:
        aggregate = self._aggregate
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
    ) -> MultipathPayload:
        aggregate = self._aggregate
        piggyback = self._piggyback
        contributors = 1 << node
        subtree_contributing = 1  # the node's own reading
        missing_stats: Optional[Dict[NodeId, int]] = None
        # Local, then converted, then received — the order the pairwise
        # fold took them in — fused once below.
        synopses = [aggregate.synopsis_local(node, epoch, readings(node, epoch))]
        sketches = [
            # The piggyback's Count reads no reading.
            None if piggyback is None else piggyback.synopsis_local(node, epoch, None)
        ]

        for received in inbox_tree.pop(node, ()):
            sender = received.sender
            synopses.append(aggregate.convert(received.partial, sender, epoch))
            if piggyback is not None:
                sketches.append(piggyback.convert(received.count, sender, epoch))
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
