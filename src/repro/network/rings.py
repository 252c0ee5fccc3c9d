"""Rings topology: BFS levels around the base station (Section 2).

Construction follows the paper: the base station transmits; everything that
hears it is ring 1; nodes in ring i transmit and anything new that hears them
is ring i+1. Over a connectivity graph this is exactly breadth-first levels
(hop counts) from the base station. Aggregation proceeds level-by-level, ring
``i+1`` transmitting while ring ``i`` listens.

The rings object is the shared coordinate system for every scheme in this
library: tree parents are restricted to level i-1 ring neighbours (the
paper's synchronization design choice, Section 4.1), and the Tributary-Delta
graph's M edges are rings edges.

State is one int32 level column over the static CSR radio graph. A node
that is dead or stranded after churn keeps its row with level ``-1`` and
simply drops out of every query, so re-ringing never copies the graph.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Collection, Iterator, List, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.network.placement import BASE_STATION, Deployment, NodeId
from repro.network.radio import Connectivity, require_reachable


class _LevelsView(Mapping):
    """Read-only ``node -> ring number`` mapping over the ringed nodes."""

    __slots__ = ("_level_of",)

    def __init__(self, level_of: np.ndarray) -> None:
        self._level_of = level_of

    def __getitem__(self, node: NodeId) -> int:
        index = int(node)
        if not 0 <= index < len(self._level_of):
            raise KeyError(node)
        level = int(self._level_of[index])
        if level < 0:
            raise KeyError(node)
        return level

    def __iter__(self) -> Iterator[NodeId]:
        return iter(np.flatnonzero(self._level_of >= 0).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._level_of >= 0))

    def __contains__(self, node: object) -> bool:
        return (
            isinstance(node, int)
            and 0 <= node < len(self._level_of)
            and self._level_of[node] >= 0
        )


class RingsTopology:
    """Levels (ring numbers) and level-respecting adjacency.

    Attributes:
        level_of: int32 ring number per node id; the base station is level
            0 and ``-1`` marks a node outside the topology (dead, or alive
            but cut off from the base station).
        connectivity: the full undirected radio graph, shared by every
            re-ringing of the same deployment.
    """

    __slots__ = ("level_of", "connectivity", "_levels")

    def __init__(self, level_of: np.ndarray, connectivity: Connectivity) -> None:
        self.level_of = np.asarray(level_of, dtype=np.int32)
        self.connectivity = connectivity
        if len(self.level_of) != len(connectivity):
            raise TopologyError("one ring level per connectivity node required")
        self._levels = _LevelsView(self.level_of)

    @classmethod
    def build(
        cls, deployment: Deployment, connectivity: Connectivity
    ) -> "RingsTopology":
        """Compute ring numbers as BFS hop counts from the base station."""
        if len(connectivity) != len(deployment):
            raise TopologyError("connectivity does not cover the deployment")
        levels = connectivity.hop_levels()
        require_reachable(levels)
        return cls(levels, connectivity)

    @classmethod
    def build_restricted(
        cls, connectivity: Connectivity, alive: Collection[NodeId]
    ) -> Tuple["RingsTopology", List[NodeId]]:
        """Re-ring after membership changed: BFS levels over the live nodes.

        ``connectivity`` is the *full* radio graph; ``alive`` the node ids
        currently up (the base station must be among them). Ring numbers are
        recomputed over the subgraph induced by the live nodes — exactly the
        construction broadcast re-run over whoever can still hear it.

        Unlike :meth:`build`, nodes cut off from the base station are not an
        error here (killing a cut vertex strands its far side); they are
        returned as the second element, sorted, and excluded from the
        topology — stranded nodes keep sensing but nothing they transmit
        can ever reach the base station.
        """
        if BASE_STATION not in alive:
            raise TopologyError("the base station cannot leave the network")
        mask = np.zeros(len(connectivity), dtype=bool)
        mask[np.fromiter(alive, dtype=np.int64, count=len(alive))] = True
        levels = connectivity.hop_levels(mask)
        stranded = np.flatnonzero(mask & (levels < 0)).tolist()
        return cls(levels, connectivity), stranded

    @property
    def levels(self) -> Mapping:
        """node -> ring number, over the nodes that have one."""
        return self._levels

    @property
    def depth(self) -> int:
        """The maximum ring number (drives latency: epochs per result)."""
        return int(self.level_of.max())

    def level(self, node: NodeId) -> int:
        """Ring number of ``node``."""
        return self._levels[node]

    def nodes_at_level(self, level: int) -> List[NodeId]:
        """All nodes in ring ``level``, sorted."""
        return np.flatnonzero(self.level_of == level).tolist()

    def levels_descending(self) -> List[int]:
        """Ring numbers from the deepest ring down to 1 (transmission order)."""
        return list(range(self.depth, 0, -1))

    def _neighbors_at(self, node: NodeId, offset: int) -> List[NodeId]:
        wanted = self._levels[node] + offset
        if wanted < 0:
            return []
        ring = self.connectivity.neighbors_of(node)
        return ring[self.level_of[ring] == wanted].tolist()

    def upstream_neighbors(self, node: NodeId) -> List[NodeId]:
        """Ring neighbours of ``node`` one level closer to the base station.

        These are the nodes that are listening when ``node`` transmits; a
        multi-path node's broadcast targets exactly this set, and a tree
        node's parent must be drawn from it (synchronization constraint).
        """
        return self._neighbors_at(node, -1)

    def downstream_neighbors(self, node: NodeId) -> List[NodeId]:
        """Ring neighbours one level farther from the base station."""
        return self._neighbors_at(node, +1)

    def same_level_neighbors(self, node: NodeId) -> List[NodeId]:
        """Ring neighbours in the same ring (TAG allows these as parents)."""
        return self._neighbors_at(node, 0)

    def ring_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """All (child, parent-candidate) pairs across adjacent rings.

        Directed from the higher ring toward the lower ring; this is the edge
        universe for both multi-path broadcasts and tree links. Sorted.
        """
        src, dst = self.upstream_links()
        return list(zip(src.tolist(), dst.tolist()))

    def upstream_links(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`ring_edges` as ``(child, parent-candidate)`` id columns."""
        src = self.connectivity.sources()
        dst = self.connectivity.neighbors
        child_level = self.level_of[src]
        up = (child_level >= 1) & (self.level_of[dst] == child_level - 1)
        return src[up], dst[up].astype(np.int64)

    def validate(self) -> None:
        """Check the defining ring invariant: levels differ by <= 1 across edges.

        BFS levels guarantee |level(u) - level(v)| <= 1 for every radio edge
        between ringed nodes and that every ringed non-base node has at least
        one upstream neighbour.
        """
        src = self.connectivity.sources()
        dst = self.connectivity.neighbors
        ringed = (self.level_of[src] >= 0) & (self.level_of[dst] >= 0)
        src, dst = src[ringed], dst[ringed]
        span = self.level_of[src] - self.level_of[dst]
        bad = np.flatnonzero(np.abs(span) > 1)
        if bad.size:
            a, b = int(src[bad[0]]), int(dst[bad[0]])
            raise TopologyError(f"edge ({a},{b}) spans more than one ring")
        has_upstream = np.bincount(src[span == 1], minlength=len(self.level_of))
        orphans = np.flatnonzero((self.level_of >= 1) & (has_upstream == 0))
        if orphans.size:
            raise TopologyError(
                f"node {int(orphans[0])} has no upstream ring neighbour"
            )
