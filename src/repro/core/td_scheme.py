"""Tributary-Delta: tree tributaries feeding a multi-path delta (Section 3).

TD runs the one wave (:mod:`repro.core.wave`) under whatever T/M labelling
its graph holds: T nodes unicast tree partials to their parents, M nodes
convert what their T children sent, fuse it with what their M neighbours
broadcast and broadcast the fusion once — tree links are ring links one
level up, so both kinds of node share one ring-level schedule (the
synchronisation design of Section 4.1). Because the labelling adapts, the
layout is rebuilt from the graph whenever a switch changed it: who
unicasts, who broadcasts, and which M nodes attach their tributaries'
"nodes not contributing" count to the Section 4.2 piggyback. The running
max/min of those reach the base station and drive the TD adaptation
strategy.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate
from repro.core.adaptation import AdaptationPolicy
from repro.core.graph import TDGraph
from repro.core.modes import Mode
from repro.core.wave import LayoutWave, WaveLayout, ring_schedule
from repro.datasets.streams import ConstantReadings
from repro.errors import ConfigurationError, PropertyViolation
from repro.kernels.td import precompute_conversions, run_td_block
from repro.network.links import Channel, TransmissionLog
from repro.network.placement import BASE_STATION, Deployment, NodeId
from repro.network.simulator import EpochOutcome, ReadingFn, exact_over
from repro.tree.structure import Tree


class TributaryDeltaScheme(LayoutWave):
    """The combined scheme with runtime delta adaptation."""

    def __init__(
        self,
        deployment: Deployment,
        graph: TDGraph,
        aggregate: Aggregate,
        policy: Optional[AdaptationPolicy] = None,
        tree_attempts: int = 1,
        multipath_attempts: int = 1,
        name: str = "TD",
        use_batch: bool = True,
    ) -> None:
        if tree_attempts < 1 or multipath_attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        super().__init__(deployment, aggregate, use_batch, name)
        self._graph = graph
        self._policy = policy
        self._tree_attempts = tree_attempts
        self._multipath_attempts = multipath_attempts
        self._rebuild_schedule()
        #: (epoch, action kind, number of nodes switched) per adaptation call.
        self.adaptation_log: List[Tuple[int, str, int]] = []
        #: Cumulative base-station control messages spent on adaptation.
        self.control_messages = 0

    @contextmanager
    def signal_only(self, readings: ReadingFn) -> Iterator[ReadingFn]:
        """Run the enclosed epochs carrying nothing but the adaptation signal.

        Adaptation (Section 4.2) reads the %-contributing estimate and the
        per-subtree "nodes not contributing" counts; both ride the
        contributing-count piggyback, the exact tree counts and the static
        layout, and delivery draws never look at a payload. So a warm-up
        whose answers nobody records carries the piggyback alone: it binds
        the scheme's :class:`~repro.aggregates.count.ContributingCount` as
        the query, whose synopsis counts its own contributors with exactly
        the piggyback's bits, and adapts exactly as it would have under the
        real aggregate. Yields the readings to drive the wave with: a
        constant while swapped, so no sensor stream is evaluated either.
        The real aggregate is back on any exit.

        Plain ``count`` is the exception: its synopsis *is* the contributing
        count (no piggyback travels, and it is keyed by its own labels), so
        it keeps carrying itself over ``readings``.
        """
        real = self._aggregate
        if self._piggyback is None:
            yield readings
            return
        self._bind_aggregate(self._contributing)
        try:
            yield ConstantReadings(0.0)
        finally:
            self._bind_aggregate(real)

    def _rebuild_schedule(self) -> None:
        """Recompute the level schedule, audiences and parents.

        Rings are static between membership changes (only modes adapt
        within one), so only :meth:`_wave_layout` reruns, after a switch.
        """
        self._level_nodes, self._upstream = ring_schedule(self._graph.rings)
        self._tree_parents = dict(self._graph.tree.parents)
        #: The last layout built and the graph version it was built at.
        self._cached_layout: Optional[Tuple[int, WaveLayout]] = None

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
    def latency_epochs(self) -> int:
        """Latency proxy: the shared ring depth (tree links follow rings)."""
        return self._graph.rings.depth

    def _wave_layout(self) -> WaveLayout:
        """The graph's current labelling, fixed while its modes are.

        Built again only after a switch changed a mode (the graph's
        ``version``), so a round that switched nothing keeps the layout and
        its delivery structure. Checks Property 1 on the way — an M node
        broadcasts to its tree parent, so that parent must be M — and finds
        the reporters: M nodes with T children (expecting their subtrees'
        sizes) and switchable M nodes (expecting 0).
        """
        graph = self._graph
        cached = self._cached_layout
        if cached is not None and cached[0] == graph.version:
            return cached[1]
        multipath = graph.delta_region()
        parents = self._tree_parents
        for nodes in self._level_nodes:
            for node in nodes:
                if node in multipath and parents.get(node) not in multipath:
                    raise PropertyViolation(
                        f"M node {node} has a non-M tree parent: "
                        "an M edge would be incident on a T vertex",
                        invariant="edge-correctness",
                        nodes=(node,),
                    )
        reporters: Dict[NodeId, int] = {}
        for node in multipath:
            expected = sum(
                graph.subtree_size(child)
                for child in graph.tree_children(node)
                if child not in multipath
            )
            if expected or graph.is_switchable_m(node):
                reporters[node] = expected
        layout = WaveLayout.build(
            self._level_nodes,
            multipath,
            parents,
            self._upstream,
            self._tree_attempts,
            self._multipath_attempts,
            reporters,
        )
        self._cached_layout = (graph.version, layout)
        return layout

    def _convert_frontier(self, partials, counts, senders, epochs):
        """A block's T -> M conversions as packed rows, for the kernel.

        Resolved through this module's ``precompute_conversions`` attribute
        on every call: that name is the conversion stage's tracing seam.
        """
        return precompute_conversions(
            self._aggregate, self._piggyback, partials, counts, senders, epochs
        )

    def run_epoch(
        self, epoch: int, channel: Channel, readings: ReadingFn
    ) -> EpochOutcome:
        """The scalar reference wave: one node, one draw at a time."""
        return self._run_wave(self._wave_layout(), epoch, channel, readings)

    def run_epochs(
        self, epochs: Sequence[int], channel: Channel, readings: ReadingFn
    ) -> List[Tuple[EpochOutcome, TransmissionLog]]:
        """A block of epochs; see :meth:`LayoutWave._run_blocks`."""
        return self._run_blocks(epochs, channel, readings, run_td_block)

    def _outcome_extra(self, layout, missing_stats) -> Dict[str, object]:
        """The delta's shape and, at an M-mode base, its missing statistics."""
        extra: Dict[str, object] = dict(self._graph.delta_summary())
        extra["latency_epochs"] = self.latency_epochs
        if BASE_STATION in layout.multipath:
            extra["missing_stats"] = missing_stats
        return extra

    # -- simulator interface -----------------------------------------------

    def exact_answer(
        self, epochs: Sequence[int], readings: ReadingFn
    ) -> List[Tuple[float, Dict[str, object]]]:
        return exact_over(self._aggregate, readings, self._alive_sensors, epochs)

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

    # -- checkpoint ----------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        """What adaptation and churn evolved: the labelling, the repaired
        tree, the live population, the policy's state and the log."""
        policy_state = getattr(self._policy, "checkpoint_state", None)
        return {
            "kind": "td",
            "modes": {
                str(node): mode.name for node, mode in self._graph.modes().items()
            },
            "tree": self._graph.tree.to_jsonable(),
            "alive": list(self._alive_sensors),
            "policy": policy_state() if policy_state is not None else None,
            "adaptation_log": [list(entry) for entry in self.adaptation_log],
            "control_messages": self.control_messages,
        }

    def restore_state(self, state: Dict[str, object], membership=None) -> None:
        """Inverse of :meth:`checkpoint_state`, over ``membership``'s rings
        when churn is on (they are rebuilt there, not saved here)."""
        rings = membership.rings if membership is not None else self._graph.rings
        modes = {int(node): Mode[name] for node, name in state["modes"].items()}
        # The TDGraph constructor re-validates Property 1 and the
        # tree-follows-rings invariant, so a corrupt checkpoint fails loudly.
        self._graph = TDGraph(rings, Tree.from_jsonable(state["tree"]), modes)
        self._rebuild_schedule()
        self._alive_sensors = list(state["alive"])
        if state["policy"] is not None:
            self._policy.restore_state(state["policy"])
        self.adaptation_log = [tuple(entry) for entry in state["adaptation_log"]]
        self.control_messages = state["control_messages"]
