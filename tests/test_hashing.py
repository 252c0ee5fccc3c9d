"""Tests for repro._hashing: stability, distribution, substreams."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._hashing import (
    geometric_level,
    hash_key,
    hash_unit,
    hash_unit_from,
    splitmix64,
    stream_rng,
)
from repro.chaos.faults import CorruptSynopsis, DuplicateDelivery
from repro.core.payloads import MultipathPayload
from repro.datasets.synthetic import make_synthetic_scenario
from repro.multipath.fm import BITS, FMSketch
from repro.network.failures import GlobalLoss
from repro.network.links import Channel


class TestHashKey:
    def test_deterministic(self):
        assert hash_key("count", 3) == hash_key("count", 3)

    def test_token_order_matters(self):
        assert hash_key("a", "b") != hash_key("b", "a")

    def test_distinct_tokens_distinct_hashes(self):
        values = {hash_key("item", i) for i in range(10_000)}
        assert len(values) == 10_000

    def test_mixed_token_types(self):
        assert hash_key(1, "x", 2.5, None) == hash_key(1, "x", 2.5, None)

    def test_int_vs_str_differ(self):
        assert hash_key(1) != hash_key("1")

    def test_tuple_token_flattens_consistently(self):
        assert hash_key(("a", 1)) == hash_key(("a", 1))

    @given(st.lists(st.integers(), min_size=1, max_size=5))
    def test_always_64_bit(self, tokens):
        value = hash_key(*tokens)
        assert 0 <= value < 1 << 64


class TestSplitmix:
    def test_avalanche_on_single_bit(self):
        a = splitmix64(0)
        b = splitmix64(1)
        assert bin(a ^ b).count("1") > 16

    def test_range(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(value) < 1 << 64


class TestHashUnit:
    def test_in_unit_interval(self):
        for i in range(1000):
            assert 0.0 <= hash_unit("u", i) < 1.0

    def test_roughly_uniform(self):
        values = [hash_unit("uniform", i) for i in range(20_000)]
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.02


class TestGeometricLevel:
    def test_distribution(self):
        counts = {}
        trials = 40_000
        for i in range(trials):
            level = geometric_level("geo", i)
            counts[level] = counts.get(level, 0) + 1
        # level 0 should hit ~1/2, level 1 ~1/4, level 2 ~1/8.
        assert abs(counts[0] / trials - 0.5) < 0.02
        assert abs(counts[1] / trials - 0.25) < 0.02
        assert abs(counts[2] / trials - 0.125) < 0.02

    def test_deterministic(self):
        assert geometric_level("x", 42) == geometric_level("x", 42)


class TestStreamRng:
    def test_same_key_same_stream(self):
        a = stream_rng("s", 1)
        b = stream_rng("s", 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_keys_different_streams(self):
        a = stream_rng("s", 1)
        b = stream_rng("s", 2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestConstantPrefixes:
    """Draws that hash their constant ``(label, seed)`` prefix once equal
    :func:`hash_unit` over the whole key, on a grid of senders, receivers,
    epochs and attempts."""

    SEEDS = (0, 7, 2**40 + 3)
    SENDERS = (0, 1, 17, 599)
    RECEIVERS = (0, 3, 42)
    EPOCHS = (0, 5, 1000)
    ATTEMPTS = (0, 1, 2)

    @given(st.lists(st.integers(-(2**63), 2**64), max_size=6))
    def test_hash_unit_from_continues_a_prefix(self, tokens):
        prefix = hash_key("label", 9)
        assert hash_unit_from(prefix, *tokens) == hash_unit("label", 9, *tokens)

    def _grid(self):
        return itertools.product(
            self.SEEDS, self.SENDERS, self.RECEIVERS, self.EPOCHS
        )

    def test_channel_draws(self):
        deployment = make_synthetic_scenario(num_sensors=10, seed=1).deployment
        loss = 0.5
        for seed, sender, receiver, epoch in self._grid():
            channel = Channel(deployment, GlobalLoss(loss), seed=seed)
            for attempt in self.ATTEMPTS:
                draw = hash_unit("channel", seed, sender, receiver, epoch, attempt)
                assert channel.delivered(sender, receiver, epoch, attempt) == (
                    draw >= loss
                )

    def test_duplicate_draws(self):
        rate = 0.5
        for seed, sender, receiver, epoch in self._grid():
            plan = DuplicateDelivery(rate, seed)
            draw = hash_unit("fault-duplicate", seed, sender, receiver, epoch)
            assert plan.duplicate(sender, receiver, epoch) == (draw < rate)

    def test_corrupt_draws(self):
        rate = 0.5
        payload = MultipathPayload(None, FMSketch(40), 1)
        for seed, sender, receiver, epoch in self._grid():
            seen = CorruptSynopsis(rate, seed).corrupt(payload, sender, receiver, epoch)
            key = (seed, sender, receiver, epoch)
            if hash_unit("fault-corrupt", *key) >= rate:
                assert seen is payload
                continue
            bucket = int(hash_unit("fault-corrupt-bucket", *key) * 40) % 40
            assert seen.count_sketch._packed == 1 << (bucket * BITS + BITS - 1)
