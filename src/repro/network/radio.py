"""Radio models: which node pairs can hear each other, and how well.

The paper's simulator (TAG's) uses a disc model: two motes are neighbours if
they are within communication range. We provide that (:class:`DiscRadio`)
plus a quality-annotated variant (:class:`QualityDiscRadio`) whose per-link
base loss grows with distance — used by the LabData reconstruction where the
paper reports realistic, distance-dependent loss.

A radio model turns a :class:`~repro.network.placement.Deployment` into a
:class:`Connectivity` — the undirected radio graph as CSR columns; the
*rings* topology and all spanning trees are built over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.network.placement import BASE_STATION, Deployment, NodeId


def _run_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` concatenated: positions within each run."""
    return np.arange(int(counts.sum())) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


class Connectivity:
    """The undirected radio graph over dense node ids ``0..n``, as CSR.

    Node ``i`` hears ``neighbors[indptr[i]:indptr[i + 1]]``, ascending. The
    graph is static: churn never edits it, it re-runs :meth:`hop_levels`
    under an ``alive`` mask, so nodes rejoin with their original links.
    """

    __slots__ = ("indptr", "neighbors")

    def __init__(self, indptr: np.ndarray, neighbors: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int32)

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable[Tuple[NodeId, NodeId]]
    ) -> "Connectivity":
        """Build from an undirected edge list (each pair listed once)."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges)
        if pairs.dtype.kind not in "iu":
            pairs = pairs.astype(np.int64)
        pairs = pairs.reshape(-1, 2)
        if pairs.size and not (
            (0 <= pairs).all() and (pairs < num_nodes).all()
        ):
            raise ConfigurationError(
                f"edge endpoints must be node ids in 0..{num_nodes - 1}"
            )
        # One int64 key per directed slot, ``source * n + neighbour``,
        # sorted in place: the CSR's (source, neighbour) order without a
        # lexsort's index array and the copies it gathers through.
        count = len(pairs)
        keys = np.empty(2 * count, dtype=np.int64)
        for half, (src, dst) in enumerate(((0, 1), (1, 0))):
            key = keys[half * count : (half + 1) * count]
            key[:] = pairs[:, src]
            key *= num_nodes
            key += pairs[:, dst]
        keys.sort()
        indptr = np.searchsorted(
            keys, np.arange(num_nodes + 1, dtype=np.int64) * num_nodes
        )
        np.remainder(keys, max(1, num_nodes), out=keys)
        return cls(indptr, keys.astype(np.int32))

    def __len__(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    def neighbors_of(self, node: NodeId) -> np.ndarray:
        """The ascending neighbour run of ``node`` (a view, do not mutate)."""
        index = int(node)
        return self.neighbors[self.indptr[index]:self.indptr[index + 1]]

    def has_edge(self, a: NodeId, b: NodeId) -> bool:
        run = self.neighbors_of(a)
        at = int(np.searchsorted(run, b))
        return at < len(run) and int(run[at]) == b

    def sources(self) -> np.ndarray:
        """The node owning each slot of ``neighbors``."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    @property
    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Every link once, as ``(a, b)`` with ``a < b``, ascending."""
        src = self.sources()
        once = src < self.neighbors
        return list(zip(src[once].tolist(), self.neighbors[once].tolist()))

    def hop_levels(self, alive: Optional[np.ndarray] = None) -> np.ndarray:
        """Hop counts from the base station (frontier BFS); -1 = unreached.

        ``alive`` is an optional boolean mask over the node ids: the search
        runs on the subgraph the live nodes induce, which is the paper's
        construction broadcast re-run over whoever can still hear it.
        """
        levels = np.full(len(self), -1, dtype=np.int32)
        levels[BASE_STATION] = 0
        indptr, neighbors = self.indptr, self.neighbors
        frontier = np.array([BASE_STATION], dtype=np.int64)
        depth = 0
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            reached = neighbors[
                np.repeat(indptr[frontier], counts) + _run_offsets(counts)
            ]
            fresh = levels[reached] < 0
            if alive is not None:
                fresh &= alive[reached]
            reached = np.unique(reached[fresh])
            depth += 1
            levels[reached] = depth
            frontier = reached.astype(np.int64)
        return levels


def require_reachable(levels: np.ndarray) -> None:
    """Raise if some node has no hop level (cannot reach the base station)."""
    missing = np.flatnonzero(levels < 0)
    if missing.size:
        raise TopologyError(
            f"{missing.size} node(s) unreachable from the base station "
            f"(e.g. {missing[:5].tolist()}); increase radio range or density"
        )


@dataclass(frozen=True)
class DiscRadio:
    """Unit-disc connectivity: nodes within ``radio_range`` are neighbours."""

    radio_range: float

    def __post_init__(self) -> None:
        if self.radio_range <= 0:
            raise ConfigurationError("radio_range must be positive")

    def connectivity(self, deployment: Deployment) -> Connectivity:
        """Build the undirected connectivity graph for a deployment.

        Nodes are bucketed into radio-range cells and candidate pairs come
        from the 3x3 cell neighbourhood, so this is O(n * neighbourhood)
        instead of O(n^2). The kept edges satisfy ``deployment.distance(a,
        b) <= radio_range`` exactly (``np.sqrt`` and CPython's ``** 0.5``
        are both correctly rounded).

        Raises:
            TopologyError: if any sensor is unreachable from the base station
                (disconnected deployments cannot aggregate at all).
        """
        xs, ys = deployment.xs, deployment.ys
        count = len(xs)
        cell = self.radio_range
        # The +1 shift keeps all bucket coordinates >= 1 so the offsets
        # below can never collide across the row seam of the key space.
        cx = np.floor_divide(xs, cell).astype(np.int64) + 1
        cy = np.floor_divide(ys, cell).astype(np.int64) + 1
        stride = int(cy.max()) + 2
        key = cx * stride + cy
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        edge_a: List[np.ndarray] = []
        edge_b: List[np.ndarray] = []
        # Each link once: a pair in one cell from its smaller id, a pair in
        # two adjacent cells from the cell whose offset to the other is
        # "forward" (one of four of the eight neighbours).
        for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
            probe = key + dx * stride + dy
            left = np.searchsorted(sorted_key, probe, side="left")
            counts = np.searchsorted(sorted_key, probe, side="right") - left
            node = np.repeat(np.arange(count), counts)
            other = order[np.repeat(left, counts) + _run_offsets(counts)]
            if dx == dy == 0:
                keep = other > node
                node, other = node[keep], other[keep]
            dxs = xs[node] - xs[other]
            dys = ys[node] - ys[other]
            keep = np.sqrt(dxs * dxs + dys * dys) <= self.radio_range
            edge_a.append(node[keep].astype(np.int32))
            edge_b.append(other[keep].astype(np.int32))
        connectivity = Connectivity.from_edges(
            count,
            np.stack([np.concatenate(edge_a), np.concatenate(edge_b)], axis=1),
        )
        require_reachable(connectivity.hop_levels())
        return connectivity

    def base_loss(self, deployment: Deployment, a: NodeId, b: NodeId) -> float:
        """Baseline per-link loss before failure models; 0 for a pure disc."""
        return 0.0


@dataclass(frozen=True)
class QualityDiscRadio:
    """Disc connectivity with distance-dependent baseline link loss.

    Loss rises linearly from ``min_loss`` at distance 0 to ``max_loss`` at the
    edge of the communication range. This mimics the measured behaviour of
    real mote radios (Zhao & Govindan, SenSys'03 — the paper's citation [23]
    for "up to 30% loss rate is common").
    """

    radio_range: float
    min_loss: float = 0.02
    max_loss: float = 0.30

    def __post_init__(self) -> None:
        if self.radio_range <= 0:
            raise ConfigurationError("radio_range must be positive")
        if not 0.0 <= self.min_loss <= self.max_loss <= 1.0:
            raise ConfigurationError("need 0 <= min_loss <= max_loss <= 1")

    def connectivity(self, deployment: Deployment) -> Connectivity:
        """Same disc connectivity as :class:`DiscRadio`."""
        return DiscRadio(self.radio_range).connectivity(deployment)

    def base_loss(self, deployment: Deployment, a: NodeId, b: NodeId) -> float:
        """Distance-proportional baseline loss for the (a, b) link."""
        fraction = min(1.0, deployment.distance(a, b) / self.radio_range)
        return self.min_loss + fraction * (self.max_loss - self.min_loss)
