"""An independent topology reference: O(N^2) disc predicate, plain-queue BFS.

Shares no code with ``repro.network`` beyond ``Deployment.distance``; small
inputs only (<= 200 nodes). The array builders — grid-bucketed adjacency,
frontier BFS, masked re-ringing — are compared against it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional, Set, Tuple


def brute_force_edges(deployment, radio_range: float) -> Set[Tuple[int, int]]:
    """Every pair ``(a, b)``, ``a < b``, within ``radio_range``."""
    nodes = deployment.node_ids
    return {
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1:]
        if deployment.distance(a, b) <= radio_range
    }


def queue_levels(
    edges: Iterable[Tuple[int, int]], alive: Optional[Iterable[int]] = None
) -> Dict[int, int]:
    """Hop counts from node 0 over ``edges`` restricted to ``alive`` nodes."""
    adjacency: Dict[int, list] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    allowed = None if alive is None else set(alive)
    levels = {0: 0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for other in adjacency.get(node, ()):
            if other in levels or (allowed is not None and other not in allowed):
                continue
            levels[other] = levels[node] + 1
            queue.append(other)
    return levels
