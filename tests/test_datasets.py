"""Tests for the LabData reconstruction and synthetic scenario builders."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.labdata import LAB_SENSORS, LabDataScenario
from repro.datasets.streams import DiurnalLightReadings
from repro.datasets.synthetic import (
    density_sweep_deployment,
    grid_jitter_placement,
    make_synthetic_scenario,
    radio_range_for_density,
    width_sweep_deployment,
)
from repro.errors import ConfigurationError
from repro.network.failures import GlobalLoss
from repro.tree.construction import build_bushy_tree
from repro.tree.domination import domination_factor


class TestLabData:
    def test_54_sensors(self, lab_scenario):
        assert lab_scenario.num_sensors == LAB_SENSORS

    def test_multi_hop_depth(self, lab_scenario):
        # The Intel lab deployment is 4-6 hops deep.
        assert 4 <= lab_scenario.rings.depth <= 7

    def test_link_loss_in_reported_band(self, lab_scenario):
        rates = list(lab_scenario.base_loss.values())
        assert rates
        assert min(rates) >= 0.05
        assert max(rates) <= 0.30

    def test_bushy_tree_domination_near_paper(self, lab_scenario):
        # The paper reports a domination factor of 2.25 for LabData.
        tree = build_bushy_tree(lab_scenario.rings, seed=3)
        assert domination_factor(tree) >= 1.7

    def test_failure_model_composes(self, lab_scenario):
        composed = lab_scenario.failure_model(GlobalLoss(0.5))
        deployment = lab_scenario.deployment
        edge = next(iter(lab_scenario.base_loss))
        rate = composed.loss_rate(deployment, edge[0], edge[1], 0)
        assert rate > 0.5  # base loss stacked on the failure model

    def test_deterministic(self):
        a = LabDataScenario.build()
        b = LabDataScenario.build()
        assert a.deployment.positions == b.deployment.positions
        assert a.base_loss == b.base_loss


def _hex_rows(rows):
    """Float cells as ``float.hex`` strings: bit equality, signed zeros too."""
    return [[float.hex(value) for value in row] for row in rows]


class TestDiurnalBlock:
    """``DiurnalLightReadings.block`` is its ``__call__``, cell for cell."""

    #: (base, amplitude, period, noise): the default cycle, one that clips
    #: at zero, integer parameters, and levels sitting on half-integers and
    #: just below zero (round-half-even, no ``-0.0``).
    shapes = [
        (250.0, 180.0, 288, 25.0),
        (0.0, 30.0, 7, 40.0),
        (5, 3, 1, 2),
        (2.5, 0.0, 3, 0.0),
        (-0.4, 0.0, 3, 0.0),
    ]

    @given(
        seed=st.integers(min_value=0, max_value=2**40),
        nodes=st.lists(st.integers(min_value=0, max_value=10**6), max_size=30),
        epochs=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
        shape=st.sampled_from(shapes),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_is_per_cell_calls(self, seed, nodes, epochs, shape):
        source = DiurnalLightReadings(*shape, seed=seed)
        block = source.block(nodes, epochs)
        assert block.dtype == "float64"
        assert block.shape == (len(epochs), len(nodes))
        expected = [[source(node, epoch) for node in nodes] for epoch in epochs]
        assert _hex_rows(block.tolist()) == _hex_rows(expected)
        for epoch, row in zip(epochs[:2], expected):
            batch = source.batch(nodes, epoch)
            assert _hex_rows([batch]) == _hex_rows([row])
            assert all(type(value) is float for value in batch)

    def test_block_chunking_is_invisible(self, monkeypatch):
        import repro.datasets.streams as streams

        source = DiurnalLightReadings(seed=5)
        nodes, epochs = list(range(1, 38)), list(range(280, 291))
        whole = source.block(nodes, epochs)
        for cells in (1, 36, 37, 38, 100):
            monkeypatch.setattr(streams, "BLOCK_CHUNK_CELLS", cells)
            assert _hex_rows(source.block(nodes, epochs).tolist()) == _hex_rows(
                whole.tolist()
            )


class TestSynthetic:
    def test_default_is_paper_scenario(self):
        scenario = make_synthetic_scenario(seed=0)
        assert scenario.deployment.num_sensors == 600
        assert scenario.deployment.width == 20.0
        assert scenario.deployment.position(0) == (10.0, 10.0)

    def test_rings_built(self):
        scenario = make_synthetic_scenario(num_sensors=80, seed=1)
        assert scenario.rings.depth >= 2

    def test_radio_range_scales_with_density(self):
        sparse = radio_range_for_density(0.2)
        dense = radio_range_for_density(2.0)
        assert sparse > dense

    def test_grid_jitter_counts(self):
        deployment = grid_jitter_placement(1.0, 10, 10, seed=2)
        assert deployment.num_sensors == 100

    def test_grid_jitter_bounds(self):
        deployment = grid_jitter_placement(0.5, 12, 8, seed=2)
        for node in deployment.sensor_ids:
            x, y = deployment.position(node)
            assert 0 <= x <= 12
            assert 0 <= y <= 8

    def test_grid_jitter_rejects_bad_density(self):
        with pytest.raises(ConfigurationError):
            grid_jitter_placement(0.0, 10, 10)

    def test_density_sweep_connected(self):
        for density in (0.2, 0.8, 1.6):
            deployment, radio = density_sweep_deployment(density, seed=0)
            radio.connectivity(deployment)  # raises if disconnected

    def test_width_sweep_connected(self):
        for width in (10, 40, 80):
            deployment, radio = width_sweep_deployment(width, seed=0)
            radio.connectivity(deployment)
