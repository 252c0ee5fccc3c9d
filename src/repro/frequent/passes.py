"""The two network passes every Section 6 runner configures.

* :func:`tree_pass` — a tree wave, deepest level first: each node runs
  the runner's step over its own items and its children's payloads, and
  unicasts the result to its parent.
* :func:`td_pass` — the Tributary-Delta wave over the rings: T nodes as
  above; M nodes fuse and broadcast once. With every node M it is the
  multi-path wave of Section 6.2.

A runner gives its node steps, its payloads' wire sizes and its own
base-station evaluation; schedule, delivery, billing and inbox order live
here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.network.links import Channel
from repro.network.messages import MessageAccountant
from repro.network.placement import BASE_STATION, NodeId
from repro.network.rings import RingsTopology
from repro.tree.structure import Tree

#: items_fn(node, epoch) -> the node's local item collection.
ItemsFn = Callable[[NodeId, int], Sequence[int]]
#: step(node, items, children's payloads) -> the node's tree payload.
TreeStep = Callable[[NodeId, Sequence[int], List[Any]], Any]

_ACCOUNTANT = MessageAccountant()


@dataclass
class TreeLoadReport:
    """Per-node communication loads for one aggregation wave."""

    per_node_words: Dict[NodeId, int] = field(default_factory=dict)

    @property
    def total_words(self) -> int:
        return sum(self.per_node_words.values())

    @property
    def average_load(self) -> float:
        if not self.per_node_words:
            return 0.0
        return self.total_words / len(self.per_node_words)

    @property
    def max_load(self) -> int:
        if not self.per_node_words:
            return 0
        return max(self.per_node_words.values())


def _unicast(channel, node, parent, epoch, words, attempts) -> bool:
    """Send a tree payload to ``parent``; without a channel it arrives."""
    if channel is None:
        return True
    messages = _ACCOUNTANT.spec_for_words(words).messages
    return bool(channel.transmit(node, [parent], epoch, words, messages, attempts))


def tree_pass(
    tree: Tree, step: TreeStep, attempts: int,
    items_fn: ItemsFn, epoch: int, channel: Optional[Channel],
) -> Tuple[List[Any], TreeLoadReport]:
    """One tree wave; returns the base station's inbox and the loads.

    Nodes go deepest level first, ties by node id. A node's load is its
    payload's words times ``attempts``. ``channel=None`` delivers every
    payload (the lossless Figure 8 mode); with a channel, a lost payload
    drops its whole subtree.
    """
    levels = tree.levels()
    order = sorted(
        (node for node in levels if node != BASE_STATION),
        key=lambda node: (-levels[node], node),
    )
    report = TreeLoadReport()
    inbox: Dict[NodeId, List[Any]] = {}
    for node in order:
        payload = step(node, items_fn(node, epoch), inbox.pop(node, []))
        words = payload.words()
        report.per_node_words[node] = words * attempts
        parent = tree.parent(node)
        if _unicast(channel, node, parent, epoch, words, attempts):
            inbox.setdefault(parent, []).append(payload)
    return inbox.pop(BASE_STATION, []), report


class TreeRunner:
    """A :func:`tree_pass` configuration: a subclass gives :meth:`step` and
    ``_root``, the answer from the payloads that reached the base station."""

    step: TreeStep

    def __init__(self, tree: Tree, attempts: int) -> None:
        if attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        self._tree = tree
        self._attempts = attempts

    def aggregate(
        self, items_fn: ItemsFn, epoch: int = 0, channel: Optional[Channel] = None
    ) -> Tuple[Any, TreeLoadReport]:
        """One aggregation wave; returns the root's answer and the loads.

        With a channel, a dropped message discards its subtree's payload;
        the answer is ``None`` if nothing reached the base station.
        """
        received, report = tree_pass(
            self._tree, self.step, self._attempts, items_fn, epoch, channel
        )
        return (self._root(received) if received else None), report


def td_pass(
    rings: RingsTopology, is_multipath: Callable[[NodeId], bool],
    epoch: int, channel: Channel, items_fn: ItemsFn, *,
    local: Callable[[NodeId, int, Sequence[int]], Any],
    fuse: Callable[[List[Any]], Any], words: Callable[[Any], int],
    multipath_attempts: int, tree: Optional[Tree] = None,
    tree_step: Optional[TreeStep] = None, tree_attempts: int = 1,
    convert: Optional[Callable[[Any, NodeId, int], Any]] = None,
) -> Tuple[List[Tuple[NodeId, Any]], List[Any]]:
    """One Tributary-Delta wave; returns what reached the base station.

    T nodes (``is_multipath`` false) run ``tree_step`` and unicast the
    payload to their ``tree`` parent, tagged with their id. An M node
    fuses its ``local`` synopsis, the ``convert``-ed payloads of its T
    children and the synopses it received, ``None`` parts dropped, and
    broadcasts the fusion (``words`` long) to its upstream ring
    neighbours; only M receivers keep it. Returns the base station's
    ``(sender, tree payload)`` inbox and its received synopses.
    """
    inbox_tree: Dict[NodeId, List[Tuple[NodeId, Any]]] = {}
    inbox_syn: Dict[NodeId, List[Any]] = {}
    for level in rings.levels_descending():
        for node in rings.nodes_at_level(level):
            items = items_fn(node, epoch)
            if not is_multipath(node):
                children = [payload for _, payload in inbox_tree.pop(node, ())]
                payload = tree_step(node, items, children)
                parent = tree.parent(node)
                if _unicast(
                    channel, node, parent, epoch, payload.words(), tree_attempts
                ):
                    inbox_tree.setdefault(parent, []).append((node, payload))
                continue
            parts = [local(node, epoch, items)]
            parts += [
                convert(payload, sender, epoch)
                for sender, payload in inbox_tree.pop(node, ())
            ]
            parts += inbox_syn.pop(node, ())
            fused = fuse([part for part in parts if part is not None])
            size = words(fused)
            heard = channel.transmit(
                node, rings.upstream_neighbors(node), epoch, size,
                _ACCOUNTANT.spec_for_words(size).messages, multipath_attempts,
            )
            for receiver in heard:
                if is_multipath(receiver):
                    inbox_syn.setdefault(receiver, []).append(fused)
    return inbox_tree.pop(BASE_STATION, []), inbox_syn.pop(BASE_STATION, [])
