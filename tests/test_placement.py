"""Tests for deployments and placements."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.network.placement import (
    BASE_STATION,
    Deployment,
    grid_random_placement,
    placement_from_points,
)


class TestGridRandomPlacement:
    def test_counts(self):
        deployment = grid_random_placement(100)
        assert deployment.num_sensors == 100
        assert len(deployment) == 101

    def test_base_station_defaults_to_centre(self):
        deployment = grid_random_placement(10, width=20, height=20)
        assert deployment.position(BASE_STATION) == (10.0, 10.0)

    def test_positions_inside_area(self):
        deployment = grid_random_placement(200, width=20, height=30, seed=3)
        for node in deployment.sensor_ids:
            x, y = deployment.position(node)
            assert 0 <= x <= 20
            assert 0 <= y <= 30

    def test_deterministic_in_seed(self):
        a = grid_random_placement(50, seed=5)
        b = grid_random_placement(50, seed=5)
        assert a.positions == b.positions

    def test_seed_changes_layout(self):
        a = grid_random_placement(50, seed=5)
        b = grid_random_placement(50, seed=6)
        assert a.positions != b.positions

    def test_rejects_zero_sensors(self):
        with pytest.raises(ConfigurationError):
            grid_random_placement(0)


class TestDeployment:
    def test_requires_base_station(self):
        with pytest.raises(ConfigurationError):
            Deployment(xs=[], ys=[], width=1, height=1)

    def test_rejects_empty_area(self):
        with pytest.raises(ConfigurationError):
            Deployment(xs=[0.0], ys=[0.0], width=0, height=1)

    def test_distance(self):
        deployment = placement_from_points(
            [(3.0, 4.0)], base_position=(0.0, 0.0), width=10, height=10
        )
        assert deployment.distance(0, 1) == pytest.approx(5.0)

    def test_nodes_in_rect(self):
        deployment = placement_from_points(
            [(1.0, 1.0), (5.0, 5.0), (9.0, 9.0)],
            base_position=(5.0, 5.0),
            width=10,
            height=10,
        )
        inside = deployment.nodes_in_rect((0, 0), (6, 6))
        assert inside == [1, 2]

    def test_nodes_in_rect_include_base(self):
        deployment = placement_from_points(
            [(1.0, 1.0)], base_position=(2.0, 2.0), width=10, height=10
        )
        inside = deployment.nodes_in_rect((0, 0), (3, 3), include_base=True)
        assert inside == [0, 1]

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ConfigurationError):
            Deployment(xs=[0.0, 1.0], ys=[0.0], width=1, height=1)

    def test_accessors_return_plain_python_numbers(self):
        # numpy scalars hash differently in the keyed-draw streams.
        deployment = grid_random_placement(6, seed=2)
        assert all(type(node) is int for node in deployment.node_ids)
        assert all(type(node) is int for node in deployment.positions)
        assert all(
            type(value) is float
            for node in deployment
            for value in deployment.position(node)
        )
        assert all(
            type(node) is int
            for node in deployment.nodes_in_rect((0, 0), (20, 20))
        )
        assert type(deployment.distance(0, 1)) is float
        assert 7 not in deployment.positions
        with pytest.raises(KeyError):
            deployment.position(7)

    def test_sensor_ids_exclude_base(self):
        deployment = grid_random_placement(5)
        assert BASE_STATION not in deployment.sensor_ids
        assert len(deployment.sensor_ids) == 5

    @given(st.integers(min_value=1, max_value=40))
    def test_iteration_covers_all_nodes(self, n):
        deployment = grid_random_placement(n, seed=1)
        assert sorted(deployment) == sorted(deployment.node_ids)
