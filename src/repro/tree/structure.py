"""The :class:`Tree` value type used by every tree-based algorithm.

A tree is stored as a child -> parent map rooted at the base station. Two
derived quantities matter throughout the paper:

* *level* — hop distance from the root (drives the epoch schedule);
* *height* — the paper's recursive definition (§6.1.1): a leaf has height 1,
  an internal node has height one more than the maximum height of its
  children. Precision gradients are functions of height, not level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import TopologyError
from repro.network.placement import BASE_STATION, NodeId


@dataclass(frozen=True)
class Tree:
    """An immutable rooted spanning tree.

    Attributes:
        parents: child -> parent mapping; the root has no entry.
        root: the root node (the base station in every paper scenario).
    """

    parents: Mapping[NodeId, NodeId]
    root: NodeId = BASE_STATION

    def __post_init__(self) -> None:
        if self.root in self.parents:
            raise TopologyError("the root cannot have a parent")
        self._validate_acyclic()

    def _validate_acyclic(self) -> None:
        """Verify every node reaches the root without revisiting a node."""
        verified: set[NodeId] = {self.root}
        for start in self.parents:
            trail: List[NodeId] = []
            node = start
            while node not in verified:
                trail.append(node)
                if node not in self.parents:
                    raise TopologyError(f"node {node} is disconnected from the root")
                node = self.parents[node]
                if node in trail:
                    raise TopologyError(f"cycle detected through node {node}")
            verified.update(trail)

    # -- basic accessors ---------------------------------------------------

    @property
    def nodes(self) -> List[NodeId]:
        """All nodes, root included, in sorted order."""
        return sorted(set(self.parents) | {self.root})

    @property
    def size(self) -> int:
        """Number of nodes including the root."""
        return len(self.parents) + 1

    def parent(self, node: NodeId) -> Optional[NodeId]:
        """Parent of ``node`` or ``None`` for the root."""
        return self.parents.get(node)

    def children_map(self) -> Dict[NodeId, List[NodeId]]:
        """Parent -> sorted list of children."""
        children: Dict[NodeId, List[NodeId]] = {node: [] for node in self.nodes}
        for child, parent in self.parents.items():
            children[parent].append(child)
        for child_list in children.values():
            child_list.sort()
        return children

    def children(self, node: NodeId) -> List[NodeId]:
        """Sorted children of ``node``."""
        return sorted(c for c, p in self.parents.items() if p == node)

    def is_leaf(self, node: NodeId) -> bool:
        """True if ``node`` has no children."""
        return not any(p == node for p in self.parents.values())

    # -- derived structure ---------------------------------------------------

    def levels(self) -> Dict[NodeId, int]:
        """Hop distance from the root for every node (root = 0)."""
        children = self.children_map()
        result: Dict[NodeId, int] = {self.root: 0}
        frontier = [self.root]
        while frontier:
            next_frontier: List[NodeId] = []
            for node in frontier:
                for child in children[node]:
                    result[child] = result[node] + 1
                    next_frontier.append(child)
            frontier = next_frontier
        return result

    def level_groups(self) -> List[List[NodeId]]:
        """The deepest-first transmission schedule: one node list per level.

        Levels run from the deepest up to level 1, ties broken by node id
        for determinism; the root only listens, so it never appears.
        """
        grouped: Dict[int, List[NodeId]] = {}
        for node, level in self.levels().items():
            if node != self.root:
                grouped.setdefault(level, []).append(node)
        return [sorted(grouped[level]) for level in sorted(grouped, reverse=True)]

    def heights(self) -> Dict[NodeId, int]:
        """The paper's height: leaves are 1, internal nodes 1 + max child.

        The root's height is the tree's height ``h`` used by precision
        gradients (the paper calls it the "height of the base station").
        """
        children = self.children_map()
        result: Dict[NodeId, int] = {}
        for node in self.postorder():
            child_heights = [result[child] for child in children[node]]
            result[node] = 1 + max(child_heights, default=0)
        return result

    @property
    def height(self) -> int:
        """Height of the root."""
        return self.heights()[self.root]

    def subtree_sizes(self) -> Dict[NodeId, int]:
        """Node -> number of nodes in its subtree (itself included)."""
        children = self.children_map()
        sizes: Dict[NodeId, int] = {}
        for node in self.postorder():
            sizes[node] = 1 + sum(sizes[child] for child in children[node])
        return sizes

    def postorder(self) -> List[NodeId]:
        """Children-before-parents order (the aggregation order)."""
        children = self.children_map()
        order: List[NodeId] = []
        stack: List[Tuple[NodeId, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for child in reversed(children[node]):
                    stack.append((child, False))
        return order

    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Directed (child, parent) edges, sorted by child."""
        return sorted(self.parents.items())

    # -- JSON codec (checkpoints) --------------------------------------------

    def to_jsonable(self) -> Dict[str, NodeId]:
        """The parent map as a JSON object, ``{str(child): parent}``."""
        return {str(child): parent for child, parent in self.parents.items()}

    @classmethod
    def from_jsonable(cls, data: Mapping[str, NodeId]) -> "Tree":
        """Inverse of :meth:`to_jsonable` (re-validates acyclicity)."""
        return cls(
            parents={int(child): parent for child, parent in data.items()}
        )
