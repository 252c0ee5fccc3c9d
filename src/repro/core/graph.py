"""The labelled Tributary-Delta aggregation topology (Section 3).

A :class:`TDGraph` combines three ingredients:

* a rings topology (levels + radio adjacency) — the multi-path substrate;
* a spanning tree whose links are a *subset of the rings links*, i.e. every
  tree parent is a level-(i-1) ring neighbour (the synchronisation design
  choice of Section 4.1, which lets nodes keep their epoch schedule when
  switching modes);
* a T/M label per vertex.

The graph enforces the paper's correctness conditions:

* **Property 1 (edge correctness)**: an M edge is never incident on a T
  vertex. Because an M node *broadcasts* to every upstream ring neighbour,
  this is maintained as the invariant "an M node's tree parent is M" —
  equivalently, the M region (the *delta*) is tree-ancestor-closed and hangs
  off the base station, fed by pure-T subtrees (the *tributaries*).
* **Switchability** (Section 3): an M vertex is switchable to T iff all its
  incoming edges are T edges (no ring-downstream M neighbour); a T vertex is
  switchable to M iff its tree parent is M (or it has no parent).

``switch_to_tree`` / ``switch_to_multipath`` refuse non-switchable nodes, so
any reachable configuration satisfies both correctness properties — this is
Lemma 1's setting, and :meth:`TDGraph.validate` re-checks it explicitly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.core.modes import Mode
from repro.errors import CorrectnessError, PropertyViolation, TopologyError
from repro.network.placement import NodeId
from repro.network.rings import RingsTopology
from repro.tree.structure import Tree

#: Bound once: the wave-side mode tests run per node per block (reporters,
#: adaptation) and per epoch (the delta summary), where looking the enum
#: member up costs more than the test itself.
_MULTIPATH = Mode.MULTIPATH


def initial_modes_by_level(
    rings: RingsTopology, max_multipath_level: int
) -> Dict[NodeId, Mode]:
    """Label all nodes with ring level <= ``max_multipath_level`` as M.

    ``max_multipath_level = 0`` yields the minimal delta {base station};
    ``max_multipath_level >= depth`` yields all-multipath (pure SD);
    ``max_multipath_level = -1`` yields all-tree (pure TAG).
    """
    modes: Dict[NodeId, Mode] = {}
    for node, level in rings.levels.items():
        if level <= max_multipath_level:
            modes[node] = Mode.MULTIPATH
        else:
            modes[node] = Mode.TREE
    return modes


class TDGraph:
    """A mutable T/M-labelled topology with validated switch operations."""

    def __init__(
        self,
        rings: RingsTopology,
        tree: Tree,
        modes: Optional[Mapping[NodeId, Mode]] = None,
    ) -> None:
        self._rings = rings
        self._tree = tree
        self._children = tree.children_map()
        self._subtree_sizes = tree.subtree_sizes()
        if modes is None:
            modes = initial_modes_by_level(rings, 0)
        self._modes: Dict[NodeId, Mode] = dict(modes)
        self._check_tree_links()
        self.validate()

    # -- construction-time invariants ---------------------------------------

    def _check_tree_links(self) -> None:
        """Tree links must be rings links going exactly one level up."""
        for child, parent in self._tree.parents.items():
            if self._rings.level(child) != self._rings.level(parent) + 1:
                raise TopologyError(
                    f"tree link {child}->{parent} does not go one ring level up",
                    level=self._rings.level(child),
                    nodes=(child, parent),
                )
            if not self._rings.connectivity.has_edge(child, parent):
                raise TopologyError(
                    f"tree link {child}->{parent} is not a radio link",
                    level=self._rings.level(child),
                    nodes=(child, parent),
                )

    def validate(self) -> None:
        """Re-check edge correctness (Property 1) for the current labels.

        An M node broadcasts to all upstream ring neighbours, including its
        tree parent; therefore its tree parent must be M. This single local
        condition is equivalent to path correctness (Property 2) here:
        upward paths cross from T to M at most once.
        """
        for node, mode in self._modes.items():
            if mode.is_multipath and node != self._tree.root:
                parent = self._tree.parent(node)
                if parent is None or not self._modes[parent].is_multipath:
                    raise PropertyViolation(
                        f"M node {node} has non-M tree parent {parent}: "
                        "an M edge would be incident on a T vertex",
                        invariant="edge-correctness",
                        level=self._rings.level(node),
                        nodes=(node,) if parent is None else (node, parent),
                    )

    # -- accessors ---------------------------------------------------------

    @property
    def rings(self) -> RingsTopology:
        return self._rings

    @property
    def tree(self) -> Tree:
        return self._tree

    def mode(self, node: NodeId) -> Mode:
        """Current label of ``node``."""
        return self._modes[node]

    def is_multipath(self, node: NodeId) -> bool:
        return self._modes.get(node) is _MULTIPATH

    def is_tree(self, node: NodeId) -> bool:
        return not self.is_multipath(node)

    def modes(self) -> Dict[NodeId, Mode]:
        """A copy of the current label assignment."""
        return dict(self._modes)

    def delta_region(self) -> Set[NodeId]:
        """The set of M vertices."""
        return {node for node, mode in self._modes.items() if mode is _MULTIPATH}

    def tree_children(self, node: NodeId) -> List[NodeId]:
        """Tree children of ``node``."""
        return self._children[node]

    def subtree_size(self, node: NodeId) -> int:
        """Static size of the tree subtree rooted at ``node`` (node included)."""
        return self._subtree_sizes[node]

    def m_downstream(self, node: NodeId) -> List[NodeId]:
        """Ring-downstream M neighbours: who sends M edges into ``node``."""
        return [
            other
            for other in self._rings.downstream_neighbors(node)
            if self.is_multipath(other)
        ]

    # -- switchability (Section 3) -------------------------------------------

    def is_switchable_m(self, node: NodeId) -> bool:
        """M vertex switchable to T: all incoming edges are T edges.

        Incoming M edges come from ring-downstream M neighbours (their
        broadcasts reach this node); incoming T edges come from tree
        children. So the condition is: no ring-downstream M neighbour.
        """
        if not self._modes[node].is_multipath:
            return False
        return not self.m_downstream(node)

    def is_switchable_t(self, node: NodeId) -> bool:
        """T vertex switchable to M: its tree parent is M, or it is the root."""
        if not self._modes[node].is_tree:
            return False
        parent = self._tree.parent(node)
        if parent is None:
            return True
        return self._modes[parent].is_multipath

    def switchable_m_nodes(self) -> List[NodeId]:
        """All currently switchable M vertices, sorted."""
        return sorted(n for n in self._modes if self.is_switchable_m(n))

    def switchable_t_nodes(self) -> List[NodeId]:
        """All currently switchable T vertices, sorted."""
        return sorted(n for n in self._modes if self.is_switchable_t(n))

    # -- switch operations -----------------------------------------------------

    def switch_to_tree(self, node: NodeId) -> None:
        """Switch a switchable M vertex to T (shrinks the delta)."""
        if not self.is_switchable_m(node):
            raise CorrectnessError(f"node {node} is not a switchable M vertex")
        self._modes[node] = Mode.TREE

    def switch_to_multipath(self, node: NodeId) -> None:
        """Switch a switchable T vertex to M (expands the delta)."""
        if not self.is_switchable_t(node):
            raise CorrectnessError(f"node {node} is not a switchable T vertex")
        self._modes[node] = Mode.MULTIPATH

    def expand_all(self) -> List[NodeId]:
        """TD-Coarse expansion: switch every switchable T vertex to M.

        Widens the delta by one ring level around its current boundary.
        Returns the switched nodes.
        """
        switched = self.switchable_t_nodes()
        for node in switched:
            self._modes[node] = Mode.MULTIPATH
        return switched

    def shrink_all(self) -> List[NodeId]:
        """TD-Coarse shrink: switch every switchable M vertex to T."""
        switched = self.switchable_m_nodes()
        for node in switched:
            self._modes[node] = Mode.TREE
        return switched

    # -- diagnostics ----------------------------------------------------------

    def delta_summary(self) -> Dict[str, float]:
        """Small numeric summary used in experiment logs."""
        delta = self.delta_region()
        return {
            "delta_size": float(len(delta)),
            "delta_fraction": len(delta) / max(1, len(self._modes)),
            "delta_max_level": float(
                self._rings.level_of[list(delta)].max() if delta else -1
            ),
        }
