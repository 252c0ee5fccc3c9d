"""Spatial GROUP BY: region hierarchies and grouped in-network aggregation.

See :mod:`repro.spatial.regions` for the quadtree/grid region layer and
:mod:`repro.spatial.grouped` for the partial-cube aggregate that carries
per-region answers up the TAG/SD/TD paths.
"""

from repro.spatial.grouped import (
    GroupedAggregate,
    RegionFilteredAggregate,
)
from repro.spatial.regions import (
    MAX_REGION_DEPTH,
    ROOT_REGION,
    RegionHierarchy,
    grid_hierarchy,
    is_region_prefix,
    parse_region_spec,
    quadtree_hierarchy,
    region_ancestor,
    region_depth,
    region_parent,
)

__all__ = [
    "GroupedAggregate",
    "RegionFilteredAggregate",
    "RegionHierarchy",
    "MAX_REGION_DEPTH",
    "ROOT_REGION",
    "grid_hierarchy",
    "is_region_prefix",
    "parse_region_spec",
    "quadtree_hierarchy",
    "region_ancestor",
    "region_depth",
    "region_parent",
]
