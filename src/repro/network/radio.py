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
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and not (
            (0 <= pairs).all() and (pairs < num_nodes).all()
        ):
            raise ConfigurationError(
                f"edge endpoints must be node ids in 0..{num_nodes - 1}"
            )
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return cls(indptr, dst[order])

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
        # The +1 shift keeps all bucket coordinates >= 1 so the 3x3 offsets
        # below can never collide across the row seam of the key space.
        cx = np.floor_divide(xs, cell).astype(np.int64) + 1
        cy = np.floor_divide(ys, cell).astype(np.int64) + 1
        stride = int(cy.max()) + 2
        key = cx * stride + cy
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        edge_a: List[np.ndarray] = []
        edge_b: List[np.ndarray] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                probe = key + dx * stride + dy
                left = np.searchsorted(sorted_key, probe, side="left")
                counts = np.searchsorted(sorted_key, probe, side="right") - left
                node = np.repeat(np.arange(count), counts)
                other = order[np.repeat(left, counts) + _run_offsets(counts)]
                keep = other > node
                node, other = node[keep], other[keep]
                dxs = xs[node] - xs[other]
                dys = ys[node] - ys[other]
                keep = np.sqrt(dxs * dxs + dys * dys) <= self.radio_range
                edge_a.append(node[keep])
                edge_b.append(other[keep])
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
