"""Grouped aggregation: per-region partial cubes over any scheme.

A grouped run replaces the scalar aggregate with a
:class:`GroupedAggregate` whose partial state is a *cube*: a dict mapping
region paths to the inner aggregate's partial for that region. A sensor's
region is where it sits, not part of what it reads: the aggregate maps
each node id to its region path once (placement is static), and readings
stay plain numbers. Cubes ride the existing TAG tree / SD synopsis / TD
mixed paths unchanged — merge and fuse operate cell-wise, word billing
charges one path word per occupied cell plus the inner payload, and
evaluation produces both the global answer (the scalar every scheme
already reports) and a per-group breakdown stashed for the schemes'
annotate paths.

Multiresolution coarsening (Meliou et al.): when a word budget is set and
a merged cube would exceed it, the deepest cells fold into their parent —
the message reports an *ancestor* region instead of its leaves, trading
resolution for fit.  Coarsening applies only on the (duplicate-sensitive)
tree side; synopsis cubes stay at leaf resolution so cell-wise fusion
remains order- and duplicate-insensitive.

This module must not import :mod:`repro.registry` (the registry imports
the region builders, and the package ``__init__`` imports this file);
callers resolve the hierarchy through ``registry.build_regions`` and pass
it in.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._hashing import hash_key
from repro.aggregates.base import Aggregate
from repro.aggregates.filtered import FilteredAggregate, require_neutral
from repro.errors import ConfigurationError
from repro.spatial.regions import (
    RegionHierarchy,
    is_region_prefix,
    region_depth,
    region_parent,
)


class GroupedAggregate(Aggregate):
    """GROUP BY wrapper: partial cubes keyed by region path.

    Tree partials and synopses are dicts ``{region_path: inner_state}``.
    Only the groupable built-ins (those whose ``supports_group_by`` is
    true) may be wrapped — grouping needs cell-wise merge to be exact over
    a partition of the sensors, which holds for count/sum/avg/min/max and
    the synopsis-backed distinct but not for e.g. the rank-based summaries.
    """

    def __init__(
        self,
        inner: Aggregate,
        hierarchy: RegionHierarchy,
        depth: int,
        word_budget: Optional[int] = None,
        spec: Optional[str] = None,
    ) -> None:
        if not inner.supports_group_by():
            supported = getattr(inner, "name", type(inner).__name__)
            raise ConfigurationError(
                f"aggregate {supported!r} does not support GROUP BY"
            )
        require_neutral(inner, "GROUP BY")
        if depth > hierarchy.max_depth:
            raise ConfigurationError(
                f"GROUP BY depth {depth} exceeds hierarchy "
                f"{hierarchy.name!r} max depth {hierarchy.max_depth}"
            )
        if word_budget is not None and word_budget < 2:
            raise ConfigurationError(
                f"GROUP BY word budget {word_budget} too small: a grouped "
                "message needs at least 2 words (header + one cell)"
            )
        self._inner = inner
        self._depth = depth
        self._budget = word_budget
        #: node id -> region path at ``depth``.
        self._paths: Dict[int, str] = {
            node: hierarchy.region_of(node, depth) for node in hierarchy.nodes()
        }
        self.name = f"{inner.name} GROUP BY {spec or f'{hierarchy.name}:{depth}'}"
        #: per-group evaluations from the most recent tree/synopsis/mixed
        #: eval, read by :meth:`estimate_extras` right after eval.
        self.last_group_evaluations: Optional[Dict[str, float]] = None

    @property
    def inner(self) -> Aggregate:
        return self._inner

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def word_budget(self) -> Optional[int]:
        return self._budget

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float):
        return {self._paths[node]: self._inner.tree_local(node, epoch, reading)}

    def tree_merge(self, a, b):
        merged = dict(a)
        for path, cell in b.items():
            existing = merged.get(path)
            merged[path] = (
                cell
                if existing is None
                else self._inner.tree_merge(existing, cell)
            )
        merged = self._normalize(merged, self._inner.tree_merge)
        if self._budget is not None:
            merged = self._coarsen(merged)
        return merged

    def tree_eval(self, cube) -> float:
        self.last_group_evaluations = {
            path: self._inner.tree_eval(cell)
            for path, cell in sorted(cube.items())
        }
        return self._inner.tree_eval(self._flatten(cube, self._inner.tree_merge, self._inner.tree_empty))

    def tree_words(self, cube) -> int:
        # Combined RLE billing: one header word (cell count + resolution
        # map) plus, per occupied cell, one path word and the inner payload.
        return 1 + sum(
            1 + self._inner.tree_words(cell) for cell in cube.values()
        )

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float):
        return {self._paths[node]: self._inner.synopsis_local(node, epoch, reading)}

    def synopsis_fuse(self, a, b):
        # Cell-wise fuse, never coarsened: folding cells would break
        # order/duplicate-insensitivity, and cells at mixed resolutions
        # (from converted, coarsened tree partials) simply coexist as
        # separate groups.
        fused = dict(a)
        for path, cell in b.items():
            existing = fused.get(path)
            fused[path] = (
                cell
                if existing is None
                else self._inner.synopsis_fuse(existing, cell)
            )
        return fused

    def synopsis_eval(self, cube) -> float:
        self.last_group_evaluations = {
            path: self._inner.synopsis_eval(cell)
            for path, cell in sorted(cube.items())
        }
        return self._inner.synopsis_eval(
            self._flatten(cube, self._inner.synopsis_fuse, self._inner.synopsis_empty)
        )

    def synopsis_words(self, cube) -> int:
        return 1 + sum(
            1 + self._inner.synopsis_words(cell) for cell in cube.values()
        )

    # -- neutral elements ----------------------------------------------------

    def tree_empty(self):
        return {}

    def synopsis_empty(self):
        return {}

    # -- conversion --------------------------------------------------------------

    def convert(self, cube, sender: int, epoch: int):
        # Each cell converts under a path-derived sender so cells from the
        # same physical sender occupy disjoint key spaces — fusing two
        # converted cells must union their virtual items, not alias them.
        return {
            path: self._inner.convert(
                cell, hash_key("group-conv", sender, path), epoch
            )
            for path, cell in cube.items()
        }

    # -- mixed evaluation --------------------------------------------------------

    def mixed_eval(self, partials: Sequence, fused) -> float:
        if fused is None:
            merged = {}
            for cube in partials:
                merged = self.tree_merge(merged, cube)
            return self.tree_eval(merged)
        combined = dict(fused)
        for index, cube in enumerate(partials):
            combined = self.synopsis_fuse(
                combined, self.convert(cube, -(index + 1), 0)
            )
        return self.synopsis_eval(combined)

    # -- truth ---------------------------------------------------------------------

    def exact_rows(
        self, readings: np.ndarray, nodes: Sequence[int]
    ) -> List[Tuple[float, Dict[str, object]]]:
        """Per epoch, the inner's truth over every sensor and, as
        ``group_truths``, over each group's sensors (one inner
        :meth:`exact_rows` per group for the whole block)."""
        by_group: Dict[str, List[int]] = {}
        for index, node in enumerate(nodes):
            by_group.setdefault(self._paths[node], []).append(index)
        groups = [
            (
                path,
                self._inner.exact_rows(
                    readings[:, cells], [nodes[cell] for cell in cells]
                ),
            )
            for path, cells in sorted(by_group.items())
        ]
        if len(nodes):
            totals = [truth for truth, _ in self._inner.exact_rows(readings, nodes)]
        else:
            totals = [self._inner.tree_eval(self._inner.tree_empty())] * len(readings)
        return [
            (total, {"group_truths": {path: rows[j][0] for path, rows in groups}})
            for j, total in enumerate(totals)
        ]

    # -- epoch-record extras -------------------------------------------------------

    def estimate_extras(self, empty: bool = False) -> Dict[str, object]:
        """Per-group estimates; an empty breakdown when nothing arrived."""
        if empty or self.last_group_evaluations is None:
            return {"group_estimates": {}}
        return {"group_estimates": dict(self.last_group_evaluations)}

    # -- capabilities --------------------------------------------------------------

    def synopsis_counts_contributors(self) -> bool:
        return False

    def supports_group_by(self) -> bool:
        return False  # no nested GROUP BY

    # -- internals -----------------------------------------------------------------

    def _flatten(self, cube, combine, empty):
        """Collapse all cells into one global inner state.

        Cells cover disjoint sensor sets (a partition, or a partition of a
        partition after coarsening), so cell-wise combine composes exactly.
        """
        cells = [cube[path] for path in sorted(cube)]
        if not cells:
            return empty()
        total = cells[0]
        for cell in cells[1:]:
            total = combine(total, cell)
        return total

    def _normalize(self, cube, combine):
        """Fold any cell whose strict ancestor is also present into it.

        Mixed resolutions appear when one branch coarsened and a sibling
        did not; a well-formed cube never reports a region and one of its
        sub-regions side by side. Deepest-first order makes the fold
        deterministic regardless of merge order.
        """
        if len(cube) < 2:
            return cube
        paths = sorted(cube, key=lambda p: (region_depth(p), p))
        result: Dict[str, object] = {}
        for path in paths:  # shallow first: ancestors land before leaves
            cell = cube[path]
            target = path
            for candidate in paths:
                if candidate == path:
                    break
                if candidate in result and is_region_prefix(candidate, path):
                    target = candidate
                    break
            existing = result.get(target)
            result[target] = (
                cell if existing is None else combine(existing, cell)
            )
        return result

    def _coarsen(self, cube):
        """Fold deepest cells into their parents until the budget fits."""
        budget = self._budget
        assert budget is not None
        cube = dict(cube)
        while self.tree_words(cube) > budget and len(cube) >= 1:
            deepest = max(cube, key=lambda p: (region_depth(p), p))
            if region_depth(deepest) == 0:
                break  # already a single root cell: nothing left to fold
            parent = region_parent(deepest)
            cell = cube.pop(deepest)
            existing = cube.get(parent)
            cube[parent] = (
                cell
                if existing is None
                else self._inner.tree_merge(existing, cell)
            )
        return cube


class RegionFilteredAggregate(FilteredAggregate):
    """Standalone single-region run: the spatial WHERE clause.

    Sensors outside ``region`` contribute the inner neutral element but
    keep relaying; which sensors those are is read off their node ids.
    Used by the amortization benchmark and the loss-0 equivalence tests —
    one grouped pass must agree with (and cost less than) a set of these.
    """

    _clause = "region filtering"

    def __init__(
        self, inner: Aggregate, hierarchy: RegionHierarchy, region: str
    ) -> None:
        super().__init__(inner, frozenset(hierarchy.members(region)).__contains__)
        self.name = f"{inner.name}[region={region}]"

    def _accepts(self, node: int, reading) -> bool:
        return self._predicate(node)

    def _mask(self, nodes: Sequence[int], readings: np.ndarray) -> np.ndarray:
        inside = np.fromiter(map(self._predicate, nodes), dtype=bool, count=len(nodes))
        return np.broadcast_to(inside, readings.shape)

    def exact(self, readings: Sequence[float]) -> float:
        raise NotImplementedError(
            "region filtering reads node ids: its truth is exact_array"
        )

