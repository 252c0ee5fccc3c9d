"""Auditing arbitrary aggregation topologies against the paper's properties.

:class:`~repro.core.graph.TDGraph` *maintains* correctness by construction;
this module *checks* it on arbitrary labelled DAGs — useful for validating
topologies imported from traces, for testing, and for studying the
equivalence the paper states between the two properties:

* **Property 1 (edge correctness)**: an M edge is never incident on a T
  vertex.
* **Property 2 (path correctness)**: on any directed path, a T edge never
  appears after an M edge.

The paper asserts these are equivalent sufficient conditions; on a per-graph
basis Property 1 trivially implies Property 2 (every edge out of an M vertex
is an M edge, so once a path enters M it stays M), and the converse holds
for graphs where every vertex lies on a path to the base station — both
directions are exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.core.modes import Mode
from repro.network.placement import NodeId

#: A directed aggregation edge (sender, receiver).
Edge = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class LabelledTopology:
    """An arbitrary directed aggregation topology with T/M labels."""

    edges: Tuple[Edge, ...]
    modes: Mapping[NodeId, Mode]

    @classmethod
    def build(
        cls, edges: Iterable[Edge], modes: Mapping[NodeId, Mode]
    ) -> "LabelledTopology":
        return cls(edges=tuple(sorted(set(edges))), modes=dict(modes))

    def edge_label(self, edge: Edge) -> Mode:
        """An edge carries its source vertex's label."""
        return self.modes[edge[0]]


def edge_correctness_violations(topology: LabelledTopology) -> List[Edge]:
    """Edges violating Property 1: M edges incident on a T vertex."""
    violations = []
    for edge in topology.edges:
        source, target = edge
        if topology.modes[source].is_multipath and topology.modes[target].is_tree:
            violations.append(edge)
    return violations


def path_correctness_violations(
    topology: LabelledTopology,
) -> List[Tuple[Edge, Edge]]:
    """Consecutive edge pairs violating Property 2: T after M on a path.

    Returns (m_edge, t_edge) pairs where ``t_edge`` directly extends
    ``m_edge``; any longer violating path contains such a pair, so an empty
    result certifies path correctness.
    """
    by_source: Dict[NodeId, List[Edge]] = {}
    for edge in topology.edges:
        by_source.setdefault(edge[0], []).append(edge)
    violations = []
    for first in topology.edges:
        if not topology.edge_label(first).is_multipath:
            continue
        for second in by_source.get(first[1], ()):
            if topology.edge_label(second).is_tree:
                violations.append((first, second))
    return violations


def is_edge_correct(topology: LabelledTopology) -> bool:
    """Whether Property 1 holds."""
    return not edge_correctness_violations(topology)


def is_path_correct(topology: LabelledTopology) -> bool:
    """Whether Property 2 holds."""
    return not path_correctness_violations(topology)


def delta_region_is_sink_closed(
    topology: LabelledTopology, base_station: NodeId = 0
) -> bool:
    """Whether the M vertices form a subgraph feeding the base station.

    The paper's structural implication: path correctness forces the M
    vertices into a "delta" that contains every vertex reachable from an M
    vertex on the way to the base station.
    """
    for edge in topology.edges:
        source, target = edge
        if topology.modes[source].is_multipath and target != base_station:
            if not topology.modes[target].is_multipath:
                return False
    return True


@dataclass
class TopologyAudit:
    """A full audit report for a labelled topology."""

    edge_violations: List[Edge] = field(default_factory=list)
    path_violations: List[Tuple[Edge, Edge]] = field(default_factory=list)
    delta_sink_closed: bool = True

    @property
    def correct(self) -> bool:
        return not self.edge_violations and not self.path_violations

    def render(self) -> str:
        if self.correct:
            return "topology OK: edge- and path-correct"
        lines = []
        for edge in self.edge_violations:
            lines.append(f"M edge {edge} incident on T vertex {edge[1]}")
        for m_edge, t_edge in self.path_violations:
            lines.append(f"T edge {t_edge} follows M edge {m_edge}")
        return "\n".join(lines)


def audit(topology: LabelledTopology, base_station: NodeId = 0) -> TopologyAudit:
    """Run every check and return the combined report."""
    return TopologyAudit(
        edge_violations=edge_correctness_violations(topology),
        path_violations=path_correctness_violations(topology),
        delta_sink_closed=delta_region_is_sink_closed(topology, base_station),
    )


def repair(topology: LabelledTopology) -> Tuple[LabelledTopology, List[NodeId]]:
    """Minimally relabel a violating topology to restore correctness.

    Edge correctness fails exactly when some vertex reachable from an M
    vertex is labelled T; the unique minimal fix that only *promotes*
    labels (T -> M) is to take the forward closure: every vertex reachable
    from an M vertex becomes M. Promotions are minimal in the strong sense
    that any edge-correct labelling that extends the original M set must
    contain the closure. (Demoting M vertices instead would discard their
    duplicate-handling state mid-aggregation, which no scheme can do
    safely — the reason the paper's switching rules only move *switchable*
    vertices.)

    Returns the repaired topology and the sorted list of promoted vertices.
    """
    successors: Dict[NodeId, List[NodeId]] = {}
    for source, target in topology.edges:
        successors.setdefault(source, []).append(target)
    frontier = [
        node for node, mode in topology.modes.items() if mode.is_multipath
    ]
    multipath: Set[NodeId] = set(frontier)
    while frontier:
        node = frontier.pop()
        for successor in successors.get(node, ()):
            if successor not in multipath:
                multipath.add(successor)
                frontier.append(successor)
    promoted = sorted(
        node
        for node in multipath
        if node in topology.modes and topology.modes[node].is_tree
    )
    if not promoted:
        return topology, []
    modes = dict(topology.modes)
    for node in promoted:
        modes[node] = Mode.MULTIPATH
    return LabelledTopology.build(topology.edges, modes), promoted


def topology_of_td_graph(graph) -> LabelledTopology:
    """Extract the effective aggregation topology from a TDGraph.

    T vertices contribute their single tree edge; M vertices contribute
    broadcast edges to every upstream ring neighbour that listens to M
    traffic (M vertices and, if multipath, the base station).
    """
    edges: List[Edge] = []
    modes = graph.modes()
    for node, mode in modes.items():
        if mode.is_tree:
            parent = graph.tree.parent(node)
            if parent is not None:
                edges.append((node, parent))
        else:
            for upstream in graph.rings.upstream_neighbors(node):
                if modes[upstream].is_multipath:
                    edges.append((node, upstream))
    return LabelledTopology.build(edges, modes)
