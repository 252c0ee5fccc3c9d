"""Message sizing: TinyDB packets, words, and run-length-encoded sketches.

The paper uses 48-byte TinyDB messages and notes (Section 7.1) that 40 32-bit
Sum synopses fit in a single message *with the help of run-length encoding*
(the citation [17] is the ANF tool, which introduced this trick for
Flajolet-Martin bitmaps). We adopt the paper's word convention: a "word"
holds one item or one counter (32 bits).

:class:`MessageAccountant` converts a payload measured in words into a
TinyDB message count; :func:`rle_encoded_bits` implements the FM-bitmap
run-length size model used to justify the 40-synopses-per-message figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError

#: TinyDB message size used throughout the paper's evaluation.
TINYDB_MESSAGE_BYTES = 48

#: Paper convention: one word = one 32-bit item or counter.
WORD_BYTES = 4

#: Payload words available per TinyDB message.
WORDS_PER_MESSAGE = TINYDB_MESSAGE_BYTES // WORD_BYTES


@dataclass(frozen=True)
class MessageSpec:
    """A payload's size, in both words and TinyDB messages."""

    words: int
    messages: int

    def __post_init__(self) -> None:
        if self.words < 0 or self.messages < 0:
            raise ConfigurationError("message sizes cannot be negative")


class MessageAccountant:
    """Maps payload word counts to TinyDB message counts."""

    def __init__(self, message_bytes: int = TINYDB_MESSAGE_BYTES) -> None:
        if message_bytes < WORD_BYTES:
            raise ConfigurationError("a message must hold at least one word")
        self._words_per_message = message_bytes // WORD_BYTES
        # Payload sizes repeat constantly (every Count partial is one word,
        # every sketch a handful); memoize the immutable specs.
        self._spec_cache: dict[int, MessageSpec] = {}

    @property
    def words_per_message(self) -> int:
        """Payload words that fit in one message."""
        return self._words_per_message

    def spec_for_words(self, words: int) -> MessageSpec:
        """Number of messages needed for a payload of ``words`` words.

        A zero-word payload still occupies one message (headers must travel
        for the parent to notice the child at all).
        """
        spec = self._spec_cache.get(words)
        if spec is not None:
            return spec
        if words <= 0:
            spec = MessageSpec(words=max(words, 0), messages=1)
        else:
            messages = -(-words // self._words_per_message)  # ceil division
            spec = MessageSpec(words=words, messages=messages)
        self._spec_cache[words] = spec
        return spec


def missing_stats_words(entries):
    """Wire cost of ``entries`` missing-statistics: a (node, count) pair each.

    A pure sizing helper so the cost model lives in one place (the heavy
    sizing — FM RLE — is memoized in :mod:`repro.multipath.fm`; this one is
    a multiply, which no cache can beat). Works on an int or, for the fused
    kernels, an integer array of entry counts.
    """
    return 2 * entries


def rle_encoded_bits(bitmap: int, bitmap_bits: int) -> int:
    """Size, in bits, of a run-length encoded FM bitmap.

    FM bitmaps have a characteristic shape: a solid run of ones in the low
    bits, a short "fringe" of mixed bits, then zeros. Following the ANF
    encoding [17] we store the length of the leading ones-run (log2(bits)
    bits) plus the raw fringe between the end of that run and the highest set
    bit. An empty bitmap costs just the run-length field.

    This is the reference size model; the hot path is the equivalent
    inlined walk in :meth:`repro.multipath.fm.FMSketch.words` (kept in
    lock-step by ``tests/test_batch_equivalence.py``).

    >>> rle_encoded_bits(0b0111, 32)  # pure run, no fringe
    5
    """
    if bitmap < 0:
        raise ConfigurationError("bitmap must be non-negative")
    length_field = max(1, (bitmap_bits - 1).bit_length())
    if bitmap == 0:
        return length_field
    run = ((bitmap + 1) & ~bitmap).bit_length() - 1  # trailing ones
    fringe = max(0, bitmap.bit_length() - run)
    return length_field + fringe


def rle_words_for_bitmaps(bitmaps: Iterable[int], bitmap_bits: int) -> int:
    """Words needed to ship a collection of FM bitmaps with RLE.

    This is the size model behind the paper's "40 32-bit Sum synopses fit in
    a 48-byte message": for typical sketch contents the encoded size is a
    handful of bits per bitmap rather than 32.
    """
    total_bits = sum(rle_encoded_bits(bitmap, bitmap_bits) for bitmap in bitmaps)
    return -(-total_bits // (WORD_BYTES * 8))
