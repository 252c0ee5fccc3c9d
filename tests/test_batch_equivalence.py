"""The vectorized primitives under the engine are bit-identical to scalar.

The engine's building blocks (``hash_unit_batch`` -> the delivery-plan
outcome table behind ``transmit_batch`` -> whole schemes) must reproduce
the scalar per-node path draw for draw — this is what keeps the paper's
paired-comparison methodology intact while the hot loops vectorize. These
tests sweep seeds, loss rates (including the 0 and 1 edge cases) and
retransmission counts, asserting byte-identical delivery sets, transmission
logs, per-node load maps and ``RunResult.estimates``; the engine == oracle
suite proper (block splits, hooks, churn, kill/resume) lives in
``tests/test_blocked_equivalence.py``.
"""

from __future__ import annotations

import itertools

import pytest

from repro._hashing import (
    geometric_level,
    geometric_level_batch,
    hash_key,
    hash_key_batch,
    hash_key_from,
    hash_unit,
    hash_unit_batch,
)
from repro.aggregates.count import CountAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import ConstantReadings, UniformReadings
from repro.network.failures import GlobalLoss, NoLoss, RegionalLoss
from repro.network.links import Channel, Transmission, transmit_sequential
from repro.network.placement import grid_random_placement
from repro.network.simulator import EpochSimulator

SEEDS = (0, 1, 7)
LOSS_RATES = (0.0, 0.3, 1.0)
ATTEMPTS = (1, 3)


class TestHashBatch:
    def test_hash_key_batch_matches_scalar(self):
        prefix = ("channel", 42)
        senders = list(range(0, 120, 3))
        receivers = [(node * 7 + 1) % 60 for node in senders]
        keys = hash_key_batch(prefix, senders, receivers)
        assert [int(key) for key in keys] == [
            hash_key(*prefix, sender, receiver)
            for sender, receiver in zip(senders, receivers)
        ]

    def test_hash_unit_batch_matches_scalar(self):
        prefix = ("channel", 3)
        column = list(range(200))
        units = hash_unit_batch(prefix, column)
        assert [float(unit) for unit in units] == [
            hash_unit(*prefix, value) for value in column
        ]

    def test_geometric_level_batch_matches_scalar(self):
        column = list(range(300))
        levels = geometric_level_batch(("fm-level", "count"), column)
        assert [int(level) for level in levels] == [
            geometric_level("fm-level", "count", value) for value in column
        ]

    def test_chain_state_prefix(self):
        state = hash_key_from(hash_key("fm-bucket"), "sum", 9)
        assert list(hash_key_batch(state, [0, 1, 2])) == [
            hash_key("fm-bucket", "sum", 9, j) for j in range(3)
        ]

    def test_negative_column_entries_masked_like_scalar(self):
        column = [-5, -1, 0, 3]
        assert [int(key) for key in hash_key_batch(("x",), column)] == [
            hash_key("x", value) for value in column
        ]


class TestSketchSizeModel:
    def test_words_fast_path_matches_rle_model(self):
        """FMSketch.words() inlines the RLE size model; keep them in lock-step."""
        import random

        from repro.multipath.fm import FMSketch
        from repro.network.messages import rle_words_for_bitmaps

        rng = random.Random(0)
        for _ in range(200):
            num_bitmaps = rng.choice((1, 8, 40))
            bits = rng.choice((4, 16, 32))
            bitmaps = [
                rng.randrange(0, 1 << bits) if rng.random() < 0.8 else 0
                for _ in range(num_bitmaps)
            ]
            sketch = FMSketch(num_bitmaps, bits, bitmaps)
            assert sketch.words() == max(
                1, rle_words_for_bitmaps(bitmaps, bits)
            ), (num_bitmaps, bits, bitmaps)


class TestTransmitBatchEquivalence:
    @pytest.fixture(scope="class")
    def deployment(self):
        return grid_random_placement(40, seed=3)

    def _transmissions(self, deployment, attempts):
        nodes = deployment.sensor_ids
        return [
            Transmission(
                sender=node,
                receivers=tuple(nodes[(node % 7) : (node % 7) + 4]),
                words=node % 5,
                messages=1 + node % 2,
                attempts=attempts,
            )
            for node in nodes[:25]
        ]

    @pytest.mark.parametrize(
        "seed,loss,attempts", list(itertools.product(SEEDS, LOSS_RATES, ATTEMPTS))
    )
    def test_bit_identical_to_scalar_loop(self, deployment, seed, loss, attempts):
        scalar = Channel(deployment, GlobalLoss(loss), seed=seed)
        batch = Channel(deployment, GlobalLoss(loss), seed=seed)
        transmissions = self._transmissions(deployment, attempts)
        for epoch in range(4):
            expected = transmit_sequential(scalar, transmissions, epoch)
            actual = batch.transmit_batch(transmissions, epoch)
            assert actual == expected
        assert batch.log == scalar.log
        assert batch.per_node_words() == scalar.per_node_words()
        assert batch.per_node_messages() == scalar.per_node_messages()

    def test_regional_loss_batch_rates(self, deployment):
        model = RegionalLoss(0.8, 0.1)
        scalar = Channel(deployment, model, seed=5)
        batch = Channel(deployment, model, seed=5)
        transmissions = self._transmissions(deployment, attempts=2)
        for epoch in range(3):
            assert batch.transmit_batch(
                transmissions, epoch
            ) == transmit_sequential(scalar, transmissions, epoch)

    def test_no_loss_shortcut(self, deployment):
        channel = Channel(deployment, NoLoss(), seed=0)
        [heard] = channel.transmit_batch(
            [Transmission(1, (2, 3, 4), words=5)], epoch=0
        )
        assert heard == [2, 3, 4]


class TestSchemeEquivalence:
    """Full-run equivalence: engine and scalar oracle, four schemes."""

    def _schemes(self, scenario, tree, aggregate_factory, use_batch):
        schemes = {
            "TAG": TagScheme(
                scenario.deployment,
                tree,
                aggregate_factory(),
                attempts=2,
                use_batch=use_batch,
            ),
            "SD": SynopsisDiffusionScheme(
                scenario.deployment,
                scenario.rings,
                aggregate_factory(),
                use_batch=use_batch,
            ),
        }
        for name, level in (("TD-Coarse", 1), ("TD", 2)):
            graph = TDGraph(
                scenario.rings,
                tree,
                initial_modes_by_level(scenario.rings, level),
            )
            schemes[name] = TributaryDeltaScheme(
                scenario.deployment,
                graph,
                aggregate_factory(),
                use_batch=use_batch,
                name=name,
            )
        return schemes

    @pytest.mark.parametrize("loss", (0.0, 0.3, 1.0))
    def test_estimates_bit_identical(self, small_scenario, small_tree, loss):
        batch = self._schemes(small_scenario, small_tree, CountAggregate, True)
        scalar = self._schemes(small_scenario, small_tree, CountAggregate, False)
        readings = ConstantReadings(1.0)
        for name in batch:
            run_batch = EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(loss),
                batch[name],
                seed=9,
                adapt_interval=0,
            ).run(5, readings, start_epoch=100)
            run_scalar = EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(loss),
                scalar[name],
                seed=9,
                adapt_interval=0,
            ).run(5, readings, start_epoch=100)
            assert run_batch.estimates == run_scalar.estimates, name
            assert [r.contributing for r in run_batch.epochs] == [
                r.contributing for r in run_scalar.epochs
            ]
            assert [r.log for r in run_batch.epochs] == [
                r.log for r in run_scalar.epochs
            ]

    def test_sum_aggregate_equivalence(self, small_scenario, small_tree):
        batch = self._schemes(small_scenario, small_tree, SumAggregate, True)
        scalar = self._schemes(small_scenario, small_tree, SumAggregate, False)
        readings = UniformReadings(1, 40, seed=5)
        for name in batch:
            run_batch = EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(0.25),
                batch[name],
                seed=4,
                adapt_interval=0,
            ).run(4, readings, start_epoch=30)
            run_scalar = EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(0.25),
                scalar[name],
                seed=4,
                adapt_interval=0,
            ).run(4, readings, start_epoch=30)
            assert run_batch.estimates == run_scalar.estimates, name

    def test_per_node_load_maps_identical(self, small_scenario, small_tree):
        readings = ConstantReadings(1.0)
        simulators = []
        for use_batch in (True, False):
            scheme = TagScheme(
                small_scenario.deployment,
                small_tree,
                CountAggregate(),
                use_batch=use_batch,
            )
            simulator = EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(0.3),
                scheme,
                seed=2,
                adapt_interval=0,
            )
            simulator.run(3, readings)
            simulators.append(simulator)
        batch_sim, scalar_sim = simulators
        words = batch_sim.channel.per_node_words()
        assert words == scalar_sim.channel.per_node_words()
        # Deployment-complete: every sensor appears, even if it never sent.
        assert set(words) == set(small_scenario.deployment.sensor_ids)
