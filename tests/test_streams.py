"""Tests for reading workloads and item streams."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.streams import (
    ConstantReadings,
    DisjointUniformItemStream,
    DiurnalLightReadings,
    LightItemStream,
    UniformReadings,
    ZipfItemStream,
    exact_item_counts,
)
from repro.errors import ConfigurationError


class TestReadings:
    def test_constant(self):
        readings = ConstantReadings(3.0)
        assert readings(5, 10) == 3.0

    def test_uniform_range_and_determinism(self):
        readings = UniformReadings(10, 20, seed=1)
        values = [readings(n, e) for n in range(20) for e in range(20)]
        assert all(10 <= v <= 20 for v in values)
        assert readings(3, 4) == readings(3, 4)

    def test_uniform_mean(self):
        readings = UniformReadings(0, 100, seed=2)
        values = [readings(n, e) for n in range(50) for e in range(50)]
        assert abs(sum(values) / len(values) - 50) < 3

    def test_uniform_rejects_inverted(self):
        with pytest.raises(ConfigurationError):
            UniformReadings(5, 1)

    def test_diurnal_nonnegative_and_periodic_shape(self):
        readings = DiurnalLightReadings(period=100, seed=3)
        values = [readings(1, e) for e in range(200)]
        assert all(v >= 0 for v in values)
        peak = max(values)
        trough = min(values)
        assert peak - trough > 100  # a real day/night swing

    def test_diurnal_nodes_correlated_not_identical(self):
        readings = DiurnalLightReadings(seed=3)
        a = [readings(1, e) for e in range(50)]
        b = [readings(2, e) for e in range(50)]
        assert a != b


class TestReadingBlocks:
    """``block`` is the one vectorised generator; ``__call__`` its oracle."""

    # Sorted-or-not, sparse (a churned level), repeated and empty node lists.
    node_lists = st.lists(st.integers(min_value=0, max_value=10**6), max_size=40)
    epoch_lists = st.lists(st.integers(min_value=0, max_value=10**5), max_size=8)

    @given(
        low=st.integers(min_value=0, max_value=500),
        width=st.integers(min_value=0, max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**40),
        nodes=node_lists,
        epochs=epoch_lists,
    )
    @settings(max_examples=80, deadline=None)
    def test_uniform_block_is_per_cell_calls(self, low, width, seed, nodes, epochs):
        source = UniformReadings(low, low + width, seed=seed)
        block = source.block(nodes, epochs)
        assert block.dtype == "float64"
        assert block.shape == (len(epochs), len(nodes))
        assert block.tolist() == [
            [source(node, epoch) for node in nodes] for epoch in epochs
        ]
        for epoch in epochs[:2]:
            row = source.batch(nodes, epoch)
            assert row == [source(node, epoch) for node in nodes]
            assert all(type(value) is float for value in row)

    @given(
        value=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        nodes=node_lists,
        epochs=epoch_lists,
    )
    @settings(max_examples=30, deadline=None)
    def test_constant_block_is_per_cell_calls(self, value, nodes, epochs):
        source = ConstantReadings(value)
        block = source.block(nodes, epochs)
        assert block.dtype == "float64"
        assert block.shape == (len(epochs), len(nodes))
        assert block.tolist() == [
            [source(node, epoch) for node in nodes] for epoch in epochs
        ]

    def test_block_chunking_is_invisible(self, monkeypatch):
        import repro.datasets.streams as streams

        source = UniformReadings(10, 100, seed=5)
        nodes, epochs = list(range(1, 38)), list(range(3, 14))
        whole = source.block(nodes, epochs)
        for cells in (1, 36, 37, 38, 100):
            monkeypatch.setattr(streams, "BLOCK_CHUNK_CELLS", cells)
            assert (source.block(nodes, epochs) == whole).all()


class TestZipf:
    def test_count_and_universe(self):
        stream = ZipfItemStream(items_per_node=30, universe=50, seed=4)
        items = stream.items(1, 0)
        assert len(items) == 30
        assert all(0 <= item < 50 for item in items)

    def test_skew(self):
        stream = ZipfItemStream(items_per_node=200, universe=100, alpha=1.5, seed=4)
        counts = exact_item_counts(stream, range(1, 21), 0)
        head = counts.get(0, 0)
        tail = counts.get(99, 0)
        assert head > 10 * max(1, tail)

    def test_deterministic(self):
        stream = ZipfItemStream(seed=5)
        assert stream.items(1, 2) == stream.items(1, 2)


class TestDisjointUniform:
    def test_streams_disjoint(self):
        stream = DisjointUniformItemStream(items_per_node=50, values_per_node=25)
        a = set(stream.items(1, 0))
        b = set(stream.items(2, 0))
        assert not a & b

    def test_within_stream_uniform_range(self):
        stream = DisjointUniformItemStream(items_per_node=100, values_per_node=10)
        items = stream.items(3, 0)
        assert all(30 <= item < 40 for item in items)


class TestLightItems:
    def test_quantization(self):
        stream = LightItemStream(items_per_node=20, bucket=25, seed=6)
        items = stream.items(1, 0)
        assert len(items) == 20
        assert all(item >= 0 for item in items)

    def test_offset_shifts_items(self):
        base = LightItemStream(items_per_node=30, bucket=25, seed=6)
        shifted = LightItemStream(
            items_per_node=30, bucket=25, seed=6, offset_fn=lambda n: 500.0
        )
        assert max(base.items(1, 0)) < max(shifted.items(1, 0))

    def test_head_items_shared_across_nodes(self):
        stream = LightItemStream(items_per_node=50, seed=6)
        counts = exact_item_counts(stream, range(1, 11), 0)
        top = max(counts.values())
        assert top > 50  # a consensus level spans nodes


class TestExactCounts:
    def test_counts(self):
        class Fixed:
            def items(self, node, epoch):
                return [1, 1, node]

        counts = exact_item_counts(Fixed(), [2, 3], 0)
        assert counts == {1: 4, 2: 1, 3: 1}
