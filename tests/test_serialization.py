"""Round-trip tests for the JSON serialization module."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialization
from repro.aggregates.sample import UniformSample
from repro.errors import ConfigurationError, SketchError
from repro.frequent.gk import GKSummary
from repro.frequent.summary import Summary
from repro.frequent.td_quantiles import QuantileSynopsis, synopsis_from_readings
from repro.multipath.fm import FMSketch
from repro.multipath.kmv import KMVSketch
from repro.network.energy import EnergyReport
from repro.network.links import TransmissionLog
from repro.network.simulator import EpochResult, RunResult


def roundtrip(obj):
    return serialization.loads(serialization.dumps(obj))


class TestSketchRoundTrips:
    def test_fm_empty(self):
        sketch = FMSketch(8)
        assert roundtrip(sketch) == sketch
        assert json.loads(serialization.dumps(sketch))["bits"] == 32

    def test_fm_populated(self):
        sketch = FMSketch(8)
        for item in range(100):
            sketch.insert("item", item)
        restored = roundtrip(sketch)
        assert restored == sketch
        assert restored.estimate() == sketch.estimate()

    def test_kmv_exact_phase(self):
        sketch = KMVSketch(k=16)
        for item in range(5):
            sketch.insert("item", item)
        restored = roundtrip(sketch)
        assert restored == sketch
        assert restored.is_exact

    def test_kmv_saturated(self):
        sketch = KMVSketch(k=8)
        for item in range(100):
            sketch.insert("item", item)
        restored = roundtrip(sketch)
        assert restored == sketch
        assert not restored.is_exact
        assert restored.estimate() == sketch.estimate()

    @given(count=st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_fm_roundtrip_property(self, count):
        sketch = FMSketch(4)
        sketch.insert_count(count, "bulk")
        assert roundtrip(sketch) == sketch


class TestSummaryRoundTrips:
    def test_frequency_summary(self):
        summary = Summary(n=10, epsilon=0.05, counts={1: 4.0, 7: 2.5})
        restored = roundtrip(summary)
        assert restored.n == summary.n
        assert restored.epsilon == summary.epsilon
        assert restored.counts == dict(summary.counts)

    def test_string_items_survive(self):
        summary = Summary(n=3, epsilon=0.0, counts={"high": 2.0, "low": 1.0})
        assert roundtrip(summary).counts == {"high": 2.0, "low": 1.0}

    def test_gk_summary(self):
        summary = GKSummary.from_values([3.0, 1.0, 2.0]).prune(2)
        restored = roundtrip(summary)
        assert restored == summary
        assert restored.query_quantile(0.5) == summary.query_quantile(0.5)

    @given(
        values=st.lists(
            st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=50
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_gk_roundtrip_property(self, values):
        summary = GKSummary.from_values(values)
        assert roundtrip(summary) == summary


class TestSampleRoundTrips:
    def test_uniform_sample(self):
        sample = UniformSample(
            capacity=4, entries=((0.25, 3, 1.5), (0.5, 7, -2.0))
        )
        assert roundtrip(sample) == sample

    def test_quantile_synopsis(self):
        synopsis = synopsis_from_readings(3, 0, [1.0, 2.0, 3.0], capacity=8)
        restored = roundtrip(synopsis)
        assert restored.entries == synopsis.entries
        assert restored.population_weight == synopsis.population_weight
        assert restored.quantile(0.5) == synopsis.quantile(0.5)


class TestResultRoundTrips:
    def make_run(self):
        log = TransmissionLog(
            transmissions=10, deliveries=8, drops=2, words_sent=40, messages_sent=10
        )
        epoch = EpochResult(
            epoch=3,
            estimate=59.5,
            true_value=60.0,
            contributing=58,
            contributing_estimate=59.5,
            log=log,
            extra={"delta_size": 12.0, "missing_stats": {4: 2, 9: 0}},
        )
        energy = EnergyReport(
            total_messages=10, total_words=40, total_uj=360.0, per_node_uj={1: 36.0}
        )
        return RunResult(scheme_name="TD", epochs=[epoch], energy=energy)

    def test_run_result_numeric_fields(self):
        run = self.make_run()
        restored = roundtrip(run)
        assert restored.scheme_name == "TD"
        assert restored.epochs[0].estimate == 59.5
        assert restored.epochs[0].log == run.epochs[0].log
        assert restored.energy.per_node_uj == {1: 36.0}
        assert restored.rms_error() == pytest.approx(run.rms_error())

    def test_extra_projected_to_json_safe(self):
        run = self.make_run()
        run.epochs[0].extra["unserialisable"] = object()
        run.epochs[0].extra["per_node"] = {4: 1.5}
        restored = roundtrip(run)
        assert "unserialisable" not in restored.epochs[0].extra
        assert restored.epochs[0].extra["delta_size"] == 12.0
        # Dict keys come back as strings (JSON's restriction), values intact;
        # the missing statistics are keyed by node id again, as recorded.
        assert restored.epochs[0].extra["per_node"] == {"4": 1.5}
        assert restored.epochs[0].extra["missing_stats"] == {4: 2, 9: 0}

    def test_file_round_trip(self, tmp_path):
        run = self.make_run()
        path = tmp_path / "run.json"
        serialization.save(run, str(path))
        restored = serialization.load(str(path))
        assert restored.scheme_name == run.scheme_name
        assert len(restored.epochs) == 1


class TestFormat:
    def test_payloads_are_tagged_and_versioned(self):
        data = json.loads(serialization.dumps(FMSketch(4)))
        assert data["type"] == "fm"
        assert data["version"] == serialization.FORMAT_VERSION

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            serialization.loads('{"type": "martian", "version": 1}')

    def test_missing_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            serialization.loads('{"version": 1}')

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("bits", 16, "field 'bits' must be 32, got 16"),
            ("bitmaps", [1, 2.5, 0, 0], "field 'bitmaps' entry 1 .* got 2.5"),
            ("bitmaps", [1, 2, -4, 0], "field 'bitmaps' entry 2 .* got -4"),
        ],
        ids=["16-bit", "float-bitmap", "negative-bitmap"],
    )
    def test_malformed_fm_payload_names_the_field(self, field, value, message):
        payload = json.loads(serialization.dumps(FMSketch(4)))
        payload[field] = value
        with pytest.raises(SketchError, match=message):
            serialization.from_jsonable(payload)

    def test_newer_version_rejected(self):
        payload = json.loads(serialization.dumps(FMSketch(4)))
        payload["version"] = serialization.FORMAT_VERSION + 1
        with pytest.raises(ConfigurationError):
            serialization.from_jsonable(payload)

    def test_unsupported_object_rejected(self):
        with pytest.raises(ConfigurationError):
            serialization.dumps(object())

    def test_dumps_is_deterministic(self):
        sketch = KMVSketch(k=8)
        sketch.insert("a")
        assert serialization.dumps(sketch) == serialization.dumps(sketch)


class TestFrequentItemsSynopsisRoundTrip:
    def make_synopsis(self, operator_cls):
        from repro.frequent.mp_fi import (
            FMOperator,
            KMVOperator,
            MultipathFrequentItems,
        )

        operator = operator_cls()
        algorithm = MultipathFrequentItems(
            epsilon=0.01, total_items_hint=500, operator=operator
        )
        items = [1, 1, 1, 2, 2, 7] * 20
        return algorithm.generate(node=3, epoch=0, items=items)

    def test_kmv_backed_synopsis(self):
        from repro.frequent.mp_fi import KMVOperator

        synopsis = self.make_synopsis(KMVOperator)
        restored = roundtrip(synopsis)
        assert restored.klass == synopsis.klass
        assert restored.n_sketch == synopsis.n_sketch
        assert restored.counts == synopsis.counts

    def test_fm_backed_synopsis(self):
        from repro.frequent.mp_fi import FMOperator

        synopsis = self.make_synopsis(FMOperator)
        restored = roundtrip(synopsis)
        assert restored.counts == synopsis.counts

    def test_restored_synopsis_still_fuses(self):
        from repro.frequent.mp_fi import KMVOperator, MultipathFrequentItems

        algorithm = MultipathFrequentItems(
            epsilon=0.01, total_items_hint=500, operator=KMVOperator()
        )
        original = algorithm.generate(3, 0, [1, 1, 2] * 30)
        restored = roundtrip(original)
        fused = algorithm.fuse_into_classes([original, restored])
        # Fusing a synopsis with its own round-trip is a no-op (ODI).
        assert len(fused) == 1
        total, estimates = algorithm.evaluate(fused)
        base_total, base_estimates = algorithm.evaluate(
            algorithm.fuse_into_classes([original])
        )
        assert total == base_total
        assert estimates == base_estimates
