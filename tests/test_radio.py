"""Tests for radio/connectivity models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_topology import brute_force_edges, queue_levels
from repro.errors import ConfigurationError, TopologyError
from repro.network.placement import grid_random_placement, placement_from_points
from repro.network.radio import Connectivity, DiscRadio, QualityDiscRadio


class TestDiscRadio:
    def test_edges_respect_range(self):
        deployment = placement_from_points(
            [(1.0, 0.0), (2.5, 0.0)], base_position=(0.0, 0.0), width=5, height=5
        )
        graph = DiscRadio(1.6).connectivity(deployment)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(0, 2)

    def test_disconnected_raises(self):
        deployment = placement_from_points(
            [(10.0, 10.0)], base_position=(0.0, 0.0), width=20, height=20
        )
        with pytest.raises(TopologyError):
            DiscRadio(1.0).connectivity(deployment)

    def test_matches_brute_force(self):
        deployment = grid_random_placement(80, width=10, height=10, seed=2)
        graph = DiscRadio(2.6).connectivity(deployment)
        assert set(graph.edges) == brute_force_edges(deployment, 2.6)

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(0.0, 12.0, allow_nan=False),
                st.floats(0.0, 9.0, allow_nan=False),
            ),
            min_size=1,
            max_size=120,
        ),
        radio_range=st.floats(0.4, 6.0),
    )
    def test_grid_buckets_match_brute_force_on_any_layout(
        self, points, radio_range
    ):
        # Duplicates, points on cell seams and near-empty cells included; a
        # layout the reference finds disconnected must be refused.
        deployment = placement_from_points(
            points, base_position=(6.0, 4.5), width=12, height=9
        )
        expected = brute_force_edges(deployment, radio_range)
        if len(queue_levels(expected)) < len(deployment):
            with pytest.raises(TopologyError):
                DiscRadio(radio_range).connectivity(deployment)
            return
        graph = DiscRadio(radio_range).connectivity(deployment)
        assert set(graph.edges) == expected
        assert all(type(a) is int and type(b) is int for a, b in graph.edges)

    def test_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            DiscRadio(0.0)

    def test_base_loss_is_zero(self):
        deployment = grid_random_placement(10, seed=1)
        assert DiscRadio(5.0).base_loss(deployment, 0, 1) == 0.0


class TestConnectivity:
    def test_from_edges_round_trips(self):
        graph = Connectivity.from_edges(5, [(3, 1), (0, 1), (4, 0), (1, 4)])
        assert graph.edges == [(0, 1), (0, 4), (1, 3), (1, 4)]
        assert graph.neighbors_of(1).tolist() == [0, 3, 4]
        assert graph.neighbors_of(2).tolist() == []
        assert graph.has_edge(4, 1) and graph.has_edge(1, 4)
        assert not graph.has_edge(2, 0) and not graph.has_edge(3, 4)
        assert len(graph) == 5

    def test_from_edges_rejects_unknown_nodes(self):
        with pytest.raises(ConfigurationError):
            Connectivity.from_edges(3, [(0, 3)])

    def test_hop_levels_mark_unreached_and_dead(self):
        graph = Connectivity.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        assert graph.hop_levels().tolist() == [0, 1, 2, 3, -1, -1]
        alive = np.array([True, True, False, True, True, True])
        assert graph.hop_levels(alive).tolist() == [0, 1, -1, -1, -1, -1]


class TestQualityDiscRadio:
    def test_loss_grows_with_distance(self):
        deployment = placement_from_points(
            [(1.0, 0.0), (4.0, 0.0)], base_position=(0.0, 0.0), width=5, height=5
        )
        radio = QualityDiscRadio(5.0, min_loss=0.05, max_loss=0.3)
        near = radio.base_loss(deployment, 0, 1)
        far = radio.base_loss(deployment, 0, 2)
        assert 0.05 <= near < far <= 0.3

    def test_loss_capped_at_max(self):
        deployment = placement_from_points(
            [(5.0, 0.0)], base_position=(0.0, 0.0), width=6, height=6
        )
        radio = QualityDiscRadio(5.0, min_loss=0.1, max_loss=0.25)
        assert radio.base_loss(deployment, 0, 1) == pytest.approx(0.25)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            QualityDiscRadio(5.0, min_loss=0.5, max_loss=0.2)
