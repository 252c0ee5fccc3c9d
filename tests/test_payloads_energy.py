"""Tests for wire payloads, the ODI check helper, and energy."""

from __future__ import annotations

import pytest
from odi import check_odi

from repro.core.payloads import MultipathPayload, TreePayload, combine_stats
from repro.multipath.fm import FMSketch
from repro.network.energy import EnergyModel, EnergyReport
from repro.network.links import TransmissionLog


class TestTreePayload:
    def test_extra_words(self):
        payload = TreePayload(partial=5, count=3, contributors=0b111, sender=2)
        assert payload.extra_words() == 1


class TestMultipathPayload:
    def test_extra_words_with_sketch_and_stats(self):
        sketch = FMSketch(8)
        sketch.insert("x")
        payload = MultipathPayload(
            synopsis=None,
            count_sketch=sketch,
            contributors=0,
            missing_stats={1: 4, 2: 0},
        )
        assert payload.extra_words() == sketch.words() + 4

    def test_extra_words_minimal(self):
        payload = MultipathPayload(synopsis=None, count_sketch=None, contributors=0)
        assert payload.extra_words() == 0


class TestCombineStats:
    def test_union(self):
        assert combine_stats({1: 5}, {2: 3}) == {1: 5, 2: 3}

    def test_duplicate_insensitive(self):
        assert combine_stats({1: 5}, {1: 5}) == {1: 5}

    def test_none_handling(self):
        assert combine_stats(None, None) is None
        assert combine_stats({1: 2}, None) == {1: 2}
        assert combine_stats(None, {1: 2}) == {1: 2}

    def test_inputs_not_mutated(self):
        a = {1: 5}
        b = {2: 3}
        combine_stats(a, b)
        assert a == {1: 5}
        assert b == {2: 3}


class TestSynopsisHelpers:
    def test_check_odi_detects_non_idempotent(self):
        # Integer addition is commutative/associative but NOT idempotent.
        assert not check_odi(lambda a, b: a + b, [1, 2])

    def test_check_odi_accepts_max(self):
        assert check_odi(max, [1, 5, 3])


class TestEnergy:
    def test_transmission_cost(self):
        model = EnergyModel(per_message_uj=10.0, per_byte_uj=2.0)
        # 2 messages + 3 words (12 bytes): 20 + 24
        assert model.transmission_cost(2, 3) == pytest.approx(44.0)

    def test_report_accumulates(self):
        model = EnergyModel(per_message_uj=1.0, per_byte_uj=1.0)
        report = EnergyReport()
        log = TransmissionLog(
            transmissions=2, deliveries=2, drops=0, words_sent=4, messages_sent=2
        )
        report.add_log(log, model)
        report.add_log(log, model)
        assert report.total_messages == 4
        assert report.total_words == 8
        assert report.total_uj == pytest.approx(2 * (2 + 16))

    def test_per_node_attribution(self):
        model = EnergyModel(per_message_uj=0.0, per_byte_uj=1.0)
        report = EnergyReport()
        report.add_node_words({1: 2, 2: 3}, model)
        assert report.per_node_uj[1] == pytest.approx(8.0)
        assert report.per_node_uj[2] == pytest.approx(12.0)
