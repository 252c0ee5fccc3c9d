"""Tests for message sizing and the RLE bitmap model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.network.messages import (
    MessageAccountant,
    TINYDB_MESSAGE_BYTES,
    WORDS_PER_MESSAGE,
    rle_encoded_bits,
    rle_words_for_bitmaps,
)


class TestMessageAccountant:
    def test_words_per_message(self):
        accountant = MessageAccountant()
        assert accountant.words_per_message == TINYDB_MESSAGE_BYTES // 4

    def test_zero_words_still_one_message(self):
        accountant = MessageAccountant()
        assert accountant.spec_for_words(0).messages == 1

    def test_exact_fit(self):
        accountant = MessageAccountant()
        spec = accountant.spec_for_words(WORDS_PER_MESSAGE)
        assert spec.messages == 1

    def test_one_word_over(self):
        accountant = MessageAccountant()
        spec = accountant.spec_for_words(WORDS_PER_MESSAGE + 1)
        assert spec.messages == 2


class TestRLE:
    def test_empty_bitmap_costs_length_field_only(self):
        assert rle_encoded_bits(0, 32) == 5

    def test_pure_run(self):
        assert rle_encoded_bits(0b0111, 32) == 5

    def test_run_plus_fringe(self):
        # run of 2 ones, fringe covers bits 2..4 (highest set bit 4).
        bitmap = 0b10011
        assert rle_encoded_bits(bitmap, 32) == 5 + 3

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            rle_encoded_bits(-1, 32)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_encoded_never_larger_than_plus_header(self, bitmap):
        assert rle_encoded_bits(bitmap, 32) <= 5 + 32

    def test_forty_typical_sum_sketches_fit_one_message(self):
        # The paper's claim: 40 32-bit Sum synopses fit in a 48-byte message
        # with RLE. Typical FM bitmaps: a solid low run plus a short fringe.
        bitmaps = [(1 << 10) - 1] * 40  # 10-bit runs, no fringe
        words = rle_words_for_bitmaps(bitmaps, 32)
        assert words <= WORDS_PER_MESSAGE

    def test_word_rounding(self):
        assert rle_words_for_bitmaps([0], 32) == 1
