"""Tests for the multi-path frequent-items algorithm (Section 6.2)."""

from __future__ import annotations

import pytest

from repro.datasets.streams import ZipfItemStream, exact_item_counts
from repro.errors import ConfigurationError, SketchError
from repro.frequent.mp_fi import (
    FMOperator,
    KMVOperator,
    MultipathFrequentItems,
)
from repro.frequent.reporting import false_negative_rate, true_frequent
from repro.frequent.td_fi import MultipathFrequentItemsScheme
from repro.network.failures import GlobalLoss, NoLoss
from repro.network.links import Channel


@pytest.fixture()
def algorithm():
    return MultipathFrequentItems(
        epsilon=0.01, total_items_hint=10_000, operator=KMVOperator(k=32)
    )


class TestSG:
    def test_empty_items(self, algorithm):
        assert algorithm.generate(1, 0, []) is None

    def test_class_is_log_of_size(self, algorithm):
        synopsis = algorithm.generate(1, 0, list(range(100)))
        assert synopsis.klass == 6  # floor(log2(100))

    def test_local_pruning_drops_rare(self):
        algorithm = MultipathFrequentItems(
            epsilon=0.3, total_items_hint=256, operator=KMVOperator(k=16)
        )
        items = [1] * 90 + [2] * 10  # n0=100, class 6
        synopsis = algorithm.generate(1, 0, items)
        # cutoff = 6 * 100 * 0.3 / 8 = 22.5: item 2 must be pruned.
        assert 1 in synopsis.counts
        assert 2 not in synopsis.counts

    def test_deterministic(self, algorithm):
        a = algorithm.generate(1, 0, [5, 5, 7])
        b = algorithm.generate(1, 0, [5, 5, 7])
        assert a.counts.keys() == b.counts.keys()
        assert all(a.counts[i] == b.counts[i] for i in a.counts)


class TestSF:
    def test_same_class_fusion(self, algorithm):
        a = algorithm.generate(1, 0, [1] * 64)
        b = algorithm.generate(2, 0, [1] * 64)
        fused = algorithm.fuse_pair(a, b)
        assert fused.klass >= a.klass
        estimate = algorithm.operator.estimate(fused.counts[1])
        assert abs(estimate - 128) / 128 < 0.5

    def test_cross_class_rejected(self, algorithm):
        a = algorithm.generate(1, 0, [1] * 16)  # class 4
        b = algorithm.generate(2, 0, [1] * 64)  # class 6
        with pytest.raises(SketchError):
            algorithm.fuse_pair(a, b)

    def test_fusion_idempotent(self, algorithm):
        a = algorithm.generate(1, 0, [1] * 64)
        fused = algorithm.fuse_pair(a, a)
        # Same underlying virtual items: the n~ estimate must not double.
        n_est = algorithm.n_operator.estimate(fused.n_sketch)
        assert n_est == pytest.approx(64, rel=0.3)

    def test_fuse_into_classes_single_per_class(self, algorithm):
        synopses = [
            algorithm.generate(node, 0, [node] * 64) for node in range(1, 9)
        ]
        result = algorithm.fuse_into_classes(synopses)
        assert all(
            result[klass].klass == klass for klass in result
        )
        assert len(result) >= 1

    def test_promotion_raises_class(self, algorithm):
        synopses = [
            algorithm.generate(node, 0, [node] * 64) for node in range(1, 9)
        ]
        result = algorithm.fuse_into_classes(synopses)
        # 8 * 64 = 512 items: the surviving synopsis must sit at class >= 8.
        assert max(result) >= 8


class TestSE:
    def test_no_false_negatives_lossless(self, small_scenario):
        stream = ZipfItemStream(items_per_node=80, universe=200, alpha=1.3, seed=9)
        counts = exact_item_counts(stream, small_scenario.deployment.sensor_ids, 0)
        total = sum(counts.values())
        support, epsilon = 0.02, 0.002
        algorithm = MultipathFrequentItems(
            epsilon=epsilon, total_items_hint=total, operator=KMVOperator(k=64)
        )
        scheme = MultipathFrequentItemsScheme(
            small_scenario.rings, algorithm, support=support
        )
        channel = Channel(small_scenario.deployment, NoLoss(), seed=1)
        outcome = scheme.run_epoch(0, channel, lambda n, e: stream.items(n, e))
        truth = true_frequent(counts, support)
        assert false_negative_rate(truth, outcome.reported) <= 0.15

    def test_best_effort_fm_operator_keeps_false_negatives_modest(
        self, small_scenario
    ):
        # The operator ablation: the paper's best-effort FM operator [7]
        # trades the KMV operator's accuracy guarantee for small messages,
        # and must still find most frequent items without loss.
        stream = ZipfItemStream(items_per_node=80, universe=200, alpha=1.3, seed=6)
        counts = exact_item_counts(stream, small_scenario.deployment.sensor_ids, 0)
        algorithm = MultipathFrequentItems(
            epsilon=0.002,
            total_items_hint=sum(counts.values()),
            operator=FMOperator(num_bitmaps=8),
        )
        scheme = MultipathFrequentItemsScheme(
            small_scenario.rings, algorithm, support=0.02
        )
        channel = Channel(small_scenario.deployment, NoLoss(), seed=1)
        outcome = scheme.run_epoch(0, channel, lambda n, e: stream.items(n, e))
        truth = true_frequent(counts, 0.02)
        assert false_negative_rate(truth, outcome.reported) <= 0.35

    def test_total_estimate_reasonable(self, small_scenario):
        stream = ZipfItemStream(items_per_node=50, universe=100, seed=3)
        counts = exact_item_counts(stream, small_scenario.deployment.sensor_ids, 0)
        total = sum(counts.values())
        algorithm = MultipathFrequentItems(
            epsilon=0.01, total_items_hint=total, operator=KMVOperator(k=32)
        )
        scheme = MultipathFrequentItemsScheme(
            small_scenario.rings, algorithm, support=0.02
        )
        channel = Channel(small_scenario.deployment, NoLoss(), seed=1)
        outcome = scheme.run_epoch(0, channel, lambda n, e: stream.items(n, e))
        assert abs(outcome.total_estimate - total) / total < 0.3

    def test_robust_under_loss(self, small_scenario):
        stream = ZipfItemStream(items_per_node=50, universe=100, alpha=1.3, seed=3)
        counts = exact_item_counts(stream, small_scenario.deployment.sensor_ids, 0)
        total = sum(counts.values())
        algorithm = MultipathFrequentItems(
            epsilon=0.01, total_items_hint=total, operator=KMVOperator(k=32)
        )
        scheme = MultipathFrequentItemsScheme(
            small_scenario.rings, algorithm, support=0.02
        )
        channel = Channel(small_scenario.deployment, GlobalLoss(0.25), seed=1)
        outcome = scheme.run_epoch(0, channel, lambda n, e: stream.items(n, e))
        # Most of the stream survives the multi-path redundancy.
        assert outcome.total_estimate > 0.6 * total


class TestOperators:
    def test_fm_operator_words(self):
        operator = FMOperator(num_bitmaps=8)
        sketch = operator.make(100, "x")
        assert operator.words(sketch) >= 1
        assert operator.estimate(sketch) > 0

    def test_relative_errors_exposed(self):
        assert 0 < KMVOperator(k=32).relative_error < 1
        assert 0 < FMOperator(num_bitmaps=8).relative_error < 1

    def test_eta_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            MultipathFrequentItems(epsilon=0.1, total_items_hint=100, eta=1.0)

    def test_collection_words(self, algorithm):
        synopsis = algorithm.generate(1, 0, [1, 1, 2])
        words = algorithm.collection_words({synopsis.klass: synopsis})
        assert words >= 3
