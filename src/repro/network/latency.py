"""Query-latency model (Sections 1, 2, and 7.4.3's footnote 6).

The paper treats latency as a first-class metric next to energy and error
(Table 1's last column) and gives the governing relation in Section 2:

    "The latency of a query result is dominated by the product of the epoch
    duration and the number of levels."

with the epoch constraint that it "must be sufficiently long such that each
sensor in a level can transmit its message once without interference from
other sensors' transmissions" — i.e. transmissions within a level are
serialised. Footnote 6 adds the retransmission economics used to design the
Figure 9b experiment:

    "two retransmissions would incur more latency than a single transmission
    of a 3 times longer message, because each retransmission occurs after
    waiting for the intended receiver's acknowledgment. Other limitations of
    retransmission include a reduction in channel capacity (by ~25%) and the
    need for bi-directional communication channels."

:class:`LatencyModel` turns those statements into numbers: per-level epoch
durations from level populations and message counts, end-to-end query
latency as the sum over levels, and the retransmission-vs-longer-message
comparison. Everything is relative — the paper never publishes absolute
timings — so only ratios between schemes are meaningful, exactly as with the
energy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.network.rings import RingsTopology


@dataclass(frozen=True)
class LatencyModel:
    """Relative timing constants for the epoch schedule.

    Attributes:
        slot_ms: airtime of one TinyDB message.
        ack_wait_ms: time a sender waits for an acknowledgment before each
            retransmission attempt (footnote 6's reason retransmissions are
            slower than longer messages).
        capacity_penalty: fractional channel-capacity reduction when
            acknowledgments are in use (footnote 6 cites ~25% [23]); applied
            as a slowdown of every slot in retransmitting configurations.
    """

    slot_ms: float = 10.0
    ack_wait_ms: float = 15.0
    capacity_penalty: float = 0.25

    def __post_init__(self) -> None:
        if self.slot_ms <= 0:
            raise ConfigurationError("slot_ms must be positive")
        if self.ack_wait_ms < 0:
            raise ConfigurationError("ack_wait_ms cannot be negative")
        if not 0.0 <= self.capacity_penalty < 1.0:
            raise ConfigurationError("capacity_penalty must be in [0, 1)")

    def _effective_slot(self, attempts: int) -> float:
        """Slot airtime, slowed by the ack overhead when retransmitting."""
        if attempts > 1:
            return self.slot_ms / (1.0 - self.capacity_penalty)
        return self.slot_ms

    def transmission_ms(self, messages: int, attempts: int = 1) -> float:
        """Time for one node's full payload, including retransmissions.

        Each of the ``attempts`` sends ships all ``messages`` packets;
        between consecutive attempts the sender waits out an ack timeout.
        A single longer transmission pays airtime only — this asymmetry is
        footnote 6's argument.
        """
        if messages < 0:
            raise ConfigurationError("messages cannot be negative")
        if attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        airtime = messages * self._effective_slot(attempts) * attempts
        ack_waits = (attempts - 1) * self.ack_wait_ms
        return airtime + ack_waits

    def epoch_ms(
        self, level_population: int, messages_per_node: int, attempts: int = 1
    ) -> float:
        """Duration of one level's transmission window.

        Transmissions within a level are serialised (the interference
        constraint), so the window is the level population times one node's
        transmission time.
        """
        if level_population < 0:
            raise ConfigurationError("level_population cannot be negative")
        return level_population * self.transmission_ms(messages_per_node, attempts)

    def query_latency_ms(
        self,
        level_populations: Sequence[int],
        messages_per_node: int = 1,
        attempts: int = 1,
    ) -> float:
        """End-to-end latency of one aggregation wave.

        ``level_populations[i]`` is the number of transmitting nodes at ring
        i+1 (the base station does not transmit). The wave crosses the levels
        sequentially — the paper's "product of the epoch duration and the
        number of levels", generalised to non-uniform level sizes.
        """
        return sum(
            self.epoch_ms(population, messages_per_node, attempts)
            for population in level_populations
        )


def level_populations(rings: RingsTopology) -> List[int]:
    """Transmitting-node counts per ring, deepest ring first.

    Matches the simulator's transmission order
    (:meth:`RingsTopology.levels_descending`).
    """
    return [len(rings.nodes_at_level(level)) for level in rings.levels_descending()]


def scheme_latency_ms(
    rings: RingsTopology,
    model: Optional[LatencyModel] = None,
    messages_per_node: int = 1,
    attempts: int = 1,
) -> float:
    """Latency of one aggregation wave over ``rings`` for a given scheme shape.

    Both families share the rings schedule (tree links are rings links in
    this library), so a scheme's latency is determined by its per-node
    message count and retransmission policy:

    * TAG, Count/Sum: ``messages_per_node=1, attempts=1``;
    * TAG with two retransmissions (Figure 9b): ``attempts=3``;
    * multi-path frequent items (3x payloads, Section 7.4.3):
      ``messages_per_node=3``.
    """
    model = model or LatencyModel()
    return model.query_latency_ms(
        level_populations(rings), messages_per_node, attempts
    )


@dataclass(frozen=True)
class RetransmissionComparison:
    """Footnote 6's comparison, made quantitative."""

    retransmit_ms: float
    longer_message_ms: float

    @property
    def retransmission_overhead(self) -> float:
        """How much slower retransmitting is than one longer transmission."""
        if self.longer_message_ms == 0:
            return float("inf")
        return self.retransmit_ms / self.longer_message_ms


def compare_retransmission_strategies(
    model: Optional[LatencyModel] = None,
    retransmissions: int = 2,
    size_factor: int = 3,
    messages: int = 1,
) -> RetransmissionComparison:
    """Quantify footnote 6: k retransmissions vs one size_factor-x message.

    With the default constants, two retransmissions of a one-message payload
    cost more than a single transmission of a three-message payload — the
    ack waits and the capacity penalty are what tree schemes pay to approach
    multi-path robustness in Figure 9b.
    """
    model = model or LatencyModel()
    retransmit = model.transmission_ms(messages, attempts=1 + retransmissions)
    longer = model.transmission_ms(messages * size_factor, attempts=1)
    return RetransmissionComparison(
        retransmit_ms=retransmit, longer_message_ms=longer
    )


def latency_table(
    rings: RingsTopology, model: Optional[LatencyModel] = None
) -> Dict[str, float]:
    """The Table 1 latency column, quantified for one rings topology.

    Returns one relative latency figure per approach. All three Count rows
    are 'minimal' in the paper because they share the per-node single
    transmission; the frequent-items rows separate (multi-path payloads are
    ~3 messages, retransmitting trees pay ack waits).
    """
    model = model or LatencyModel()
    return {
        "tree (count)": scheme_latency_ms(rings, model),
        "multi-path (count)": scheme_latency_ms(rings, model),
        "tributary-delta (count)": scheme_latency_ms(rings, model),
        "tree (freq items, 2 retx)": scheme_latency_ms(rings, model, attempts=3),
        "multi-path (freq items)": scheme_latency_ms(
            rings, model, messages_per_node=3
        ),
    }
