"""Tests for the rings topology."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_topology import queue_levels
from repro.network.placement import BASE_STATION, grid_random_placement
from repro.network.radio import DiscRadio
from repro.network.rings import RingsTopology


@pytest.fixture(scope="module")
def rings():
    deployment = grid_random_placement(120, width=15, height=15, seed=3)
    graph = DiscRadio(2.8).connectivity(deployment)
    return RingsTopology.build(deployment, graph), deployment, graph


class TestConstruction:
    def test_base_station_is_level_zero(self, rings):
        topology, _, _ = rings
        assert topology.level(BASE_STATION) == 0

    def test_levels_are_hop_counts(self, rings):
        topology, _, graph = rings
        assert dict(topology.levels) == queue_levels(graph.edges)

    def test_edges_span_at_most_one_ring(self, rings):
        topology, _, graph = rings
        for a, b in graph.edges:
            assert abs(topology.level(a) - topology.level(b)) <= 1

    def test_validate_passes(self, rings):
        topology, _, _ = rings
        topology.validate()

    def test_every_node_has_upstream(self, rings):
        topology, deployment, _ = rings
        for node in deployment.sensor_ids:
            assert topology.upstream_neighbors(node), node


class TestNeighbourQueries:
    def test_upstream_levels(self, rings):
        topology, deployment, _ = rings
        for node in deployment.sensor_ids:
            own = topology.level(node)
            for upstream in topology.upstream_neighbors(node):
                assert topology.level(upstream) == own - 1

    def test_downstream_mirrors_upstream(self, rings):
        topology, deployment, _ = rings
        for node in deployment.sensor_ids[:40]:
            for downstream in topology.downstream_neighbors(node):
                assert node in topology.upstream_neighbors(downstream)

    def test_same_level_neighbors(self, rings):
        topology, deployment, _ = rings
        for node in deployment.sensor_ids[:40]:
            for peer in topology.same_level_neighbors(node):
                assert topology.level(peer) == topology.level(node)
                assert peer != node

    def test_nodes_at_level_partition(self, rings):
        topology, deployment, _ = rings
        seen = []
        for level in range(topology.depth + 1):
            seen.extend(topology.nodes_at_level(level))
        assert sorted(seen) == deployment.node_ids

    def test_levels_descending_order(self, rings):
        topology, _, _ = rings
        order = topology.levels_descending()
        assert order == sorted(order, reverse=True)
        assert order[-1] == 1

    def test_ring_edges_directed_upstream(self, rings):
        topology, _, _ = rings
        for child, parent in topology.ring_edges():
            assert topology.level(child) == topology.level(parent) + 1


class TestMaskedReRinging:
    """``build_restricted`` against the plain-queue BFS on live subsets."""

    @settings(max_examples=60, deadline=None)
    @given(dead=st.sets(st.integers(1, 120), max_size=110))
    def test_levels_and_stranded_match_reference(self, rings, dead):
        full, deployment, graph = rings
        alive = set(deployment.node_ids) - dead
        restricted, stranded = RingsTopology.build_restricted(graph, alive)
        expected = queue_levels(graph.edges, alive)
        assert dict(restricted.levels) == expected
        assert list(restricted.levels) == sorted(expected)
        assert stranded == sorted(alive - set(expected))
        assert restricted.connectivity is full.connectivity
        restricted.validate()
        for node in dead | set(stranded):
            assert node not in restricted.levels
            with pytest.raises(KeyError):
                restricted.level(node)
        # Neighbour queries see ringed nodes only — never a dead node whose
        # -1 would otherwise look like "one ring above the base station".
        assert restricted.upstream_neighbors(BASE_STATION) == []
        for node in expected:
            for query, offset in (
                (restricted.upstream_neighbors, -1),
                (restricted.same_level_neighbors, 0),
                (restricted.downstream_neighbors, +1),
            ):
                assert query(node) == [
                    other
                    for other in graph.neighbors_of(node).tolist()
                    if expected.get(other) == expected[node] + offset
                ]
        assert restricted.ring_edges() == sorted(
            (child, parent)
            for child in expected
            for parent in restricted.upstream_neighbors(child)
        )
