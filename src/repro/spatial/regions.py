"""Region hierarchies: recursive spatial partitions of a deployment area.

A :class:`RegionHierarchy` maps every node of a deployment to a *region
path* at each depth of a recursive grid.  Depth 0 is the whole deployment
(path ``"r"``); each deeper level splits every cell into ``split x split``
children, and a node's path records the child index chosen at each level
(``"r/3/0"`` = child 3 of the root, child 0 of that).  Paths are plain
strings so they can ride inside partial-cube dictionaries, epoch extras and
JSON reports unchanged.

The canonical hierarchy is the quadtree (``split=2``, the multiresolution
cube layout of Meliou et al.); a coarser 3x3 grid variant is registered
alongside it.  Builders read the ``Deployment`` surface only
(``width``/``height``/``sensor_ids``/``position``).

This module is registry-free by design: :mod:`repro.registry` imports the
builders defined here to populate its ``REGIONS`` registry, so importing
the registry from this file would be a cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.errors import ConfigurationError

ROOT_REGION = "r"

#: Hard ceiling on requested GROUP BY depth.  8 quadtree levels is 65536
#: cells over the deployment — far past the point where per-cell billing
#: dominates, and it keeps path words encodable in one 16-bit field.
MAX_REGION_DEPTH = 8

_SPEC_HINT = "expected NAME[:DEPTH[:BUDGET]], e.g. 'region:2' or 'region:2:64'"


def parse_region_spec(spec: str) -> Tuple[str, int, int | None]:
    """Split a region spec string into ``(name, depth, word_budget)``.

    >>> parse_region_spec("region:2")
    ('region', 2, None)
    >>> parse_region_spec("region")
    ('region', 1, None)
    >>> parse_region_spec("grid:1:32")
    ('grid', 1, 32)
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigurationError(
            f"empty GROUP BY region spec {spec!r}: {_SPEC_HINT}"
        )
    tokens = spec.strip().lower().split(":")
    if len(tokens) > 3:
        raise ConfigurationError(
            f"too many ':' fields in GROUP BY spec {spec!r}: {_SPEC_HINT}"
        )
    name = tokens[0].strip()
    if not name:
        raise ConfigurationError(
            f"missing hierarchy name in GROUP BY spec {spec!r}: {_SPEC_HINT}"
        )
    depth = 1
    if len(tokens) >= 2:
        try:
            depth = int(tokens[1])
        except ValueError:
            raise ConfigurationError(
                f"non-integer depth {tokens[1]!r} in GROUP BY spec {spec!r}: "
                f"{_SPEC_HINT}"
            ) from None
        if not 0 <= depth <= MAX_REGION_DEPTH:
            raise ConfigurationError(
                f"depth {depth} out of range in GROUP BY spec {spec!r}: "
                f"depth must be between 0 and {MAX_REGION_DEPTH}"
            )
    budget = None
    if len(tokens) == 3:
        try:
            budget = int(tokens[2])
        except ValueError:
            raise ConfigurationError(
                f"non-integer word budget {tokens[2]!r} in GROUP BY spec "
                f"{spec!r}: {_SPEC_HINT}"
            ) from None
        if budget < 2:
            raise ConfigurationError(
                f"word budget {budget} too small in GROUP BY spec {spec!r}: "
                "a grouped message needs at least 2 words (header + one cell)"
            )
    return name, depth, budget


def region_depth(path: str) -> int:
    """Depth of a region path (0 for the root)."""
    return path.count("/")


def region_parent(path: str) -> str:
    """Immediate ancestor of a path; the root is its own parent."""
    if path == ROOT_REGION:
        return ROOT_REGION
    return path.rsplit("/", 1)[0]


def region_ancestor(path: str, depth: int) -> str:
    """Truncate a path to the given depth (no-op if already shallower)."""
    if depth <= 0:
        return ROOT_REGION
    parts = path.split("/")
    return "/".join(parts[: depth + 1])


def is_region_prefix(ancestor: str, path: str) -> bool:
    """True when ``ancestor`` is ``path`` or one of its ancestors."""
    return path == ancestor or path.startswith(ancestor + "/")


class RegionHierarchy:
    """Node-to-region-path mapping for one recursive partition.

    ``leaf_digits`` holds, per node, the child index chosen at each of the
    ``max_depth`` levels; rendered paths are prefixes of that digit string.
    """

    def __init__(
        self,
        name: str,
        leaf_digits: Mapping[int, Tuple[int, ...]],
        max_depth: int,
        split: int,
    ) -> None:
        if max_depth < 0:
            raise ConfigurationError(f"negative hierarchy depth {max_depth}")
        if split < 2:
            raise ConfigurationError(
                f"hierarchy split {split} must be at least 2"
            )
        self.name = name
        self.max_depth = max_depth
        self.split = split
        self._digits: Dict[int, Tuple[int, ...]] = dict(leaf_digits)
        self._rendered: Dict[Tuple[int, int], str] = {}

    def region_of(self, node: int, depth: int) -> str:
        """Region path containing ``node`` at the requested depth."""
        if depth > self.max_depth:
            raise ConfigurationError(
                f"depth {depth} exceeds hierarchy {self.name!r} max depth "
                f"{self.max_depth}"
            )
        key = (node, depth)
        cached = self._rendered.get(key)
        if cached is not None:
            return cached
        try:
            digits = self._digits[node]
        except KeyError:
            raise ConfigurationError(
                f"node {node} has no position in region hierarchy "
                f"{self.name!r}"
            ) from None
        if depth <= 0:
            path = ROOT_REGION
        else:
            path = ROOT_REGION + "/" + "/".join(
                str(d) for d in digits[:depth]
            )
        self._rendered[key] = path
        return path

    def nodes(self) -> List[int]:
        return sorted(self._digits)

    def regions_at(self, depth: int) -> List[str]:
        """Sorted non-empty region paths at a depth."""
        return sorted({self.region_of(n, depth) for n in self._digits})

    def members(self, path: str) -> List[int]:
        """Nodes whose region at ``path``'s depth is ``path`` or below it."""
        depth = region_depth(path)
        return sorted(
            n
            for n in self._digits
            if is_region_prefix(path, self.region_of(n, depth))
        )


def _recursive_grid(
    deployment, max_depth: int, split: int, name: str
) -> RegionHierarchy:
    width = float(deployment.width)
    height = float(deployment.height)
    digits: Dict[int, Tuple[int, ...]] = {}
    nodes: Iterable[int] = deployment.sensor_ids
    for node in list(nodes) + [0]:
        x, y = deployment.position(node)
        # Normalised coordinates in [0, 1); clamp the far edge inward so a
        # sensor sitting exactly on the boundary lands in the last cell.
        fx = min(max(x / width, 0.0), 1.0 - 1e-12)
        fy = min(max(y / height, 0.0), 1.0 - 1e-12)
        cell: List[int] = []
        for _ in range(max_depth):
            fx *= split
            fy *= split
            ix = min(int(fx), split - 1)
            iy = min(int(fy), split - 1)
            cell.append(ix + split * iy)
            fx -= ix
            fy -= iy
        digits[node] = tuple(cell)
    return RegionHierarchy(name, digits, max_depth, split)


def quadtree_hierarchy(
    deployment, max_depth: int = MAX_REGION_DEPTH
) -> RegionHierarchy:
    """The canonical quadtree over the deployment bounding box.

    Each level splits every cell into four quadrants; child index is
    ``ix + 2*iy`` (0 = lower-left, 3 = upper-right).
    """
    return _recursive_grid(deployment, max_depth, split=2, name="region")


def grid_hierarchy(
    deployment, max_depth: int = MAX_REGION_DEPTH
) -> RegionHierarchy:
    """A coarser 3x3 recursive grid (nine children per cell)."""
    return _recursive_grid(deployment, max_depth, split=3, name="grid")
