"""Tests for the query-latency model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.network.latency import (
    LatencyModel,
    RetransmissionComparison,
    compare_retransmission_strategies,
    latency_table,
    level_populations,
    scheme_latency_ms,
)


class TestLatencyModel:
    def test_single_message_is_one_slot(self):
        model = LatencyModel(slot_ms=10.0)
        assert model.transmission_ms(1) == 10.0

    def test_messages_serialise(self):
        model = LatencyModel(slot_ms=10.0)
        assert model.transmission_ms(3) == 30.0

    def test_retransmissions_pay_ack_waits(self):
        model = LatencyModel(slot_ms=10.0, ack_wait_ms=15.0, capacity_penalty=0.0)
        # 3 attempts of 1 message: 3 slots + 2 ack waits.
        assert model.transmission_ms(1, attempts=3) == pytest.approx(60.0)

    def test_capacity_penalty_slows_retransmitting_slots(self):
        model = LatencyModel(slot_ms=10.0, ack_wait_ms=0.0, capacity_penalty=0.25)
        # Effective slot = 10 / 0.75; only applies when attempts > 1.
        assert model.transmission_ms(1, attempts=1) == 10.0
        assert model.transmission_ms(1, attempts=2) == pytest.approx(2 * 10.0 / 0.75)

    def test_epoch_serialises_level_population(self):
        model = LatencyModel(slot_ms=10.0)
        assert model.epoch_ms(level_population=5, messages_per_node=1) == 50.0

    def test_query_latency_sums_levels(self):
        model = LatencyModel(slot_ms=10.0)
        assert model.query_latency_ms([5, 3, 2]) == 100.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(slot_ms=0.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(ack_wait_ms=-1.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(capacity_penalty=1.0)
        model = LatencyModel()
        with pytest.raises(ConfigurationError):
            model.transmission_ms(-1)
        with pytest.raises(ConfigurationError):
            model.transmission_ms(1, attempts=0)
        with pytest.raises(ConfigurationError):
            model.epoch_ms(-1, 1)

    @given(
        messages=st.integers(min_value=1, max_value=10),
        attempts=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_latency_monotone_in_messages_and_attempts(self, messages, attempts):
        model = LatencyModel()
        base = model.transmission_ms(messages, attempts)
        assert model.transmission_ms(messages + 1, attempts) > base
        assert model.transmission_ms(messages, attempts + 1) > base


class TestFootnote6:
    def test_two_retransmissions_slower_than_triple_message(self):
        """Footnote 6: 2 retx of 1 msg > 1 transmission of a 3x message."""
        comparison = compare_retransmission_strategies()
        assert comparison.retransmit_ms > comparison.longer_message_ms
        assert comparison.retransmission_overhead > 1.0

    def test_comparison_without_ack_wait_or_penalty_is_even(self):
        model = LatencyModel(ack_wait_ms=0.0, capacity_penalty=0.0)
        comparison = compare_retransmission_strategies(model)
        # 3 attempts x 1 message vs 1 attempt x 3 messages: identical airtime.
        assert comparison.retransmit_ms == pytest.approx(
            comparison.longer_message_ms
        )

    def test_dataclass_fields(self):
        comparison = RetransmissionComparison(
            retransmit_ms=80.0, longer_message_ms=30.0
        )
        assert comparison.retransmission_overhead == pytest.approx(80.0 / 30.0)


class TestSchemeLatency:
    def test_level_populations_match_rings(self, small_scenario):
        populations = level_populations(small_scenario.rings)
        rings = small_scenario.rings
        assert len(populations) == rings.depth
        assert sum(populations) == len(rings.levels) - 1  # base never transmits
        assert populations[0] == len(rings.nodes_at_level(rings.depth))

    def test_count_rows_equal_across_schemes(self, small_scenario):
        """Table 1: all three approaches have 'minimal' Count latency."""
        table = latency_table(small_scenario.rings)
        assert (
            table["tree (count)"]
            == table["multi-path (count)"]
            == table["tributary-delta (count)"]
        )

    def test_frequent_items_rows_cost_more(self, small_scenario):
        table = latency_table(small_scenario.rings)
        assert table["tree (freq items, 2 retx)"] > table["tree (count)"]
        assert table["multi-path (freq items)"] > table["multi-path (count)"]

    def test_retransmitting_tree_slower_than_3x_multipath(self, small_scenario):
        """Footnote 6 at network scale: the Figure 9b energy-parity design
        (2 tree retransmissions vs 3-message multi-path payloads) costs the
        tree MORE latency."""
        retx_tree = scheme_latency_ms(small_scenario.rings, attempts=3)
        long_multipath = scheme_latency_ms(
            small_scenario.rings, messages_per_node=3
        )
        assert retx_tree > long_multipath

    def test_latency_scales_with_depth(self, small_scenario, medium_scenario):
        small = scheme_latency_ms(small_scenario.rings)
        # Same model, bigger network: more levels and/or more nodes per level.
        medium = scheme_latency_ms(medium_scenario.rings)
        assert medium > small
