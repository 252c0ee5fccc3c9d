"""Tree construction: TAG baseline and the paper's bushy builder (§6.1.3).

Two algorithms:

* :func:`build_tag_tree` — the standard construction [10]: each node picks a
  parent among neighbours at its own level or one level up. Same-level
  parents lengthen paths and flatten the height profile, which is why these
  trees have *low* domination factors (Figure 7's "TAG Tree" series).

* :func:`build_bushy_tree` — the paper's construction. Two changes: (1)
  parents come strictly from ring level i-1 (this also enforces the
  Tributary-Delta synchronisation constraint "tree links are a subset of
  rings links"); (2) *opportunistic parent switching*: a node of height j+1
  with two or more height-j children pins two of them and flags itself;
  non-pinned nodes then switch parents randomly to reachable non-flagged
  level-(i-1) nodes, and any non-flagged node that accumulates two flagged
  children of the same height pins them and flags itself. Lemma 2 then makes
  the tree (locally) 2-dominating wherever possible.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro._hashing import stream_rng
from repro.errors import TopologyError
from repro.network.placement import BASE_STATION, NodeId
from repro.network.rings import RingsTopology
from repro.tree.structure import Tree


def build_tag_tree(
    rings: RingsTopology,
    seed: int = 0,
    same_level_fraction: float = 0.3,
) -> Tree:
    """Standard (TAG-style) tree construction over the rings' radio graph.

    Every node first adopts a random upstream (level i-1) neighbour; then a
    ``same_level_fraction`` of nodes re-parent to a random same-level
    neighbour, as the standard algorithm permits [10]. Same-level parents are
    only adopted when they keep the tree acyclic (the chosen parent must not
    be a descendant and must itself still have an upstream parent).
    """
    rng = stream_rng("tag-tree", seed)
    parents: Dict[NodeId, NodeId] = {}
    for node in sorted(rings.levels):
        if node == BASE_STATION:
            continue
        upstream = rings.upstream_neighbors(node)
        if not upstream:
            raise TopologyError(f"node {node} has no upstream neighbour")
        parents[node] = rng.choice(upstream)

    # Second pass: some nodes adopt a same-level parent, which is what makes
    # TAG trees stringy (chains within a ring) and lowers their domination
    # factor relative to the paper's construction.
    candidates = [node for node in sorted(parents) if rings.level(node) >= 1]
    rng.shuffle(candidates)
    switch_count = int(len(candidates) * same_level_fraction)
    switched = 0
    upstream_parented: Set[NodeId] = set(parents)
    for node in candidates:
        if switched >= switch_count:
            break
        peers = [
            peer
            for peer in rings.same_level_neighbors(node)
            if peer in upstream_parented and peer != node
        ]
        if not peers:
            continue
        chosen = rng.choice(peers)
        # The chosen parent keeps its upstream parent, so the only cycle risk
        # is `chosen` being below `node`; since `chosen` currently hangs off
        # an upstream parent (never off `node`), paths stay acyclic as long
        # as we do not let an already-switched node become a parent target.
        parents[node] = chosen
        upstream_parented.discard(node)
        switched += 1
    return Tree(parents=parents, root=BASE_STATION)


def _upstream_csr(
    rings: RingsTopology,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rings as arrays: ``(ids, level_of, indptr, upstream)``.

    ``ids`` are the ringed node ids ascending (after churn the survivors'
    ids are sparse); every other array speaks *dense indices* into it
    (index order == id order, which is what lets the builder compare
    indices where the paper's rules compare ids). Node ``i``'s upstream ring
    neighbours are ``upstream[indptr[i]:indptr[i+1]]``, ascending — the list
    ``rings.upstream_neighbors`` returns.
    """
    ids = np.flatnonzero(rings.level_of >= 0)
    level_of = rings.level_of[ids].astype(np.int64)
    # Ring links arrive sorted by (child, candidate) id, and the id -> index
    # map is monotone, so the runs stay ascending.
    src, dst = rings.upstream_links()
    src, dst = np.searchsorted(ids, src), np.searchsorted(ids, dst)
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(ids)), out=indptr[1:])
    return ids, level_of, indptr, dst


def build_bushy_tree(
    rings: RingsTopology,
    seed: int = 0,
    max_rounds: int = 30,
) -> Tree:
    """The paper's tree construction with opportunistic parent switching.

    Returns a tree whose links are all (child at level i, parent at level
    i-1) rings links, after ``max_rounds`` of the pin-and-flag local search
    (or earlier if a round changes nothing).

    The rules run on arrays, the random draws do not: ``rng`` is consumed
    one ``randrange`` per node in ascending id order — the initial parent,
    then per round every non-pinned node that has somewhere to go — which
    is draw for draw what ``rng.choice`` over the option lists consumes.
    """
    rng = stream_rng("bushy-tree", seed)
    draw = rng.randrange
    ids, level_of, indptr, upstream = _upstream_csr(rings)
    count = len(ids)
    sensors = np.flatnonzero(ids != BASE_STATION)
    degree = np.diff(indptr)
    orphans = sensors[degree[sensors] == 0]
    if orphans.size:
        raise TopologyError(
            f"node {int(ids[orphans[0]])} has no upstream neighbour"
        )
    owner = np.repeat(np.arange(count), degree)

    parent = np.full(count, -1, dtype=np.int64)

    def check_one_ring_up() -> None:
        if (level_of[parent[sensors]] != level_of[sensors] - 1).any():
            raise TopologyError("a tree parent is not exactly one ring up")

    picks = [draw(options) for options in degree[sensors].tolist()]
    parent[sensors] = upstream[indptr[sensors] + np.array(picks, dtype=np.int64)]
    check_one_ring_up()

    # kids_below[level]: ring ``level + 1`` ascending, i.e. the children of
    # ring ``level``'s nodes.
    by_level = np.argsort(level_of, kind="stable")
    ring_start = np.searchsorted(
        level_of[by_level], np.arange(int(level_of.max()) + 2)
    )
    kids_below = [
        by_level[ring_start[level]:ring_start[level + 1]]
        for level in range(1, len(ring_start) - 1)
    ]
    pinned = np.zeros(count, dtype=bool)
    flagged = np.zeros(count, dtype=bool)

    for _ in range(max_rounds):
        grew = _pin_and_flag(parent, kids_below, pinned, flagged)

        # Non-pinned nodes explore: switch to a random reachable non-flagged
        # node one ring closer to the base station.
        is_option = ~flagged[upstream] & (upstream != parent[owner])
        running = np.concatenate([[0], np.cumsum(is_option)])
        options = running[indptr[1:]] - running[indptr[:-1]]
        options[pinned] = 0
        movers = np.flatnonzero(options)
        if movers.size:
            picks = [draw(choices) for choices in options[movers].tolist()]
            # The pick-th open edge of each mover's upstream run.
            wanted = running[indptr[movers]] + np.array(picks, dtype=np.int64)
            parent[movers] = upstream[
                np.searchsorted(running, wanted, side="right") - 1
            ]
            check_one_ring_up()
        if not grew and not movers.size:
            break

    node_ids = ids.tolist()
    return Tree(
        parents={
            node_ids[child]: node_ids[up]
            for child, up in zip(sensors.tolist(), parent[sensors].tolist())
        },
        root=BASE_STATION,
    )


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal (sorted) keys begins."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def _first_pairs(group: np.ndarray, members: np.ndarray):
    """First two members of every run of equal ``group`` keys of length >= 2.

    ``group`` must arrive sorted; returns ``(keys, first, second)``.
    """
    starts = np.flatnonzero(_run_starts(group))
    lengths = np.diff(np.concatenate([starts, [len(group)]]))
    starts = starts[lengths >= 2]
    return group[starts], members[starts], members[starts + 1]


def _pin_and_flag(
    parent: np.ndarray,
    kids_below: List[np.ndarray],
    pinned: np.ndarray,
    flagged: np.ndarray,
) -> bool:
    """Apply the paper's pinning rules; return whether anything changed.

    Rule 1: a node of height j+1 with >= 2 children of height j pins two of
    them and flags itself. Rule 2: a non-flagged node with >= 2 flagged
    children of the same height pins both and flags itself. Rule 2 is what
    propagates bushiness up the tree.

    The rules are stated for one sweep over the nodes in ascending id, so a
    child flagged earlier *in the same sweep* counts for its parent's rule 2
    exactly when ``kid_id < parent_id``. Running ring by ring from the
    deepest (a node's flag depends only on the rings below it) keeps that:
    this sweep's flags stay in ``fresh`` and are visible to smaller-id
    children's parents only.
    """
    count = len(parent)
    heights = np.ones(count, dtype=np.int64)
    fresh = np.zeros(count, dtype=bool)
    changed = False
    for kids in reversed(kids_below):
        up = parent[kids]
        np.maximum.at(heights, up, heights[kids] + 1)
        open_up = ~flagged[up]
        # Rule 1: the two smallest-id children one below the parent's height.
        top = open_up & (heights[kids] == heights[up] - 1)
        order = np.argsort(up[top], kind="stable")
        flaggers, first, second = _first_pairs(up[top][order], kids[top][order])
        # Rule 2, for parents rule 1 left alone: the lowest height with two
        # flagged children, smallest ids first.
        fresh[flaggers] = True
        counted = open_up & ~fresh[up] & (
            flagged[kids] | (fresh[kids] & (kids < up))
        )
        if counted.any():
            kid, above, tall = kids[counted], up[counted], heights[kids[counted]]
            order = np.lexsort((kid, tall, above))
            # One key per (parent, height) run; heights never reach count.
            keys, low, high = _first_pairs(
                above[order] * count + tall[order], kid[order]
            )
            flaggers = keys // count
            lowest = _run_starts(flaggers)
            fresh[flaggers[lowest]] = True
            first = np.concatenate([first, low[lowest]])
            second = np.concatenate([second, high[lowest]])
        if first.size:
            pinned[first] = True
            pinned[second] = True
            changed = True
    flagged |= fresh
    return changed
