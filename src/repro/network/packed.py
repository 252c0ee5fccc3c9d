"""The registered topology builders under their pre-registry name.

``build_packed_topology`` dates from when array-backed node state was a
second tier with its own builders. It stays importable from this module
because the end-to-end benchmark (``benchmarks/e2e``) wraps it by name.
"""

from __future__ import annotations


def build_packed_topology(name: str, num_sensors: int, seed: int):
    """Resolve and run the registered topology builder ``name``."""
    from repro.registry import TOPOLOGIES

    return TOPOLOGIES.resolve(name)(num_sensors=num_sensors, seed=seed)
