"""Energy accounting.

The paper's premise: sending a message costs several orders of magnitude more
than local computation, so energy is dominated by (number of messages) x
(message size). We expose exactly the two components of Table 1 — message
count and words sent — plus a combined joule-style scalar for convenience.

The default radio constants are in the right regime for early-2000s motes
(CC1000-class radios: tens of microjoules per transmitted byte), but every
experiment in this reproduction compares *relative* energy, so only the ratio
between per-message overhead and per-byte cost matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.network.links import TransmissionLog
from repro.network.messages import WORD_BYTES
from repro.network.placement import NodeId


@dataclass(frozen=True)
class EnergyModel:
    """Scalar energy cost model for transmissions.

    Attributes:
        per_message_uj: fixed cost per message (preamble, MAC, header).
        per_byte_uj: marginal cost per payload byte.
    """

    per_message_uj: float = 20.0
    per_byte_uj: float = 1.0

    def transmission_cost(self, messages: int, words: int) -> float:
        """Energy (microjoules) of sending ``messages`` holding ``words``."""
        return messages * self.per_message_uj + words * WORD_BYTES * self.per_byte_uj


@dataclass(frozen=True)
class MoteEnergyModel:
    """Per-epoch energy bill of one mote.

    Attributes:
        transmit: the message/byte transmission model.
        receive_per_message_uj: cost to receive and decode one message.
        listen_per_epoch_uj: idle-listening cost of the node's receive
            window each epoch (radios burn power listening even when
            nothing arrives — the reason duty cycling exists).
        cpu_per_epoch_uj: local computation; "several orders of magnitude"
            below communication per the paper, but billed for honesty.
    """

    transmit: EnergyModel = field(default_factory=EnergyModel)
    receive_per_message_uj: float = 8.0
    listen_per_epoch_uj: float = 30.0
    cpu_per_epoch_uj: float = 0.05

    def __post_init__(self) -> None:
        if (
            self.receive_per_message_uj < 0
            or self.listen_per_epoch_uj < 0
            or self.cpu_per_epoch_uj < 0
        ):
            raise ConfigurationError("energy costs cannot be negative")

    def epoch_cost_uj(
        self,
        transmit_messages: float,
        transmit_words: float,
        received_messages: float,
    ) -> float:
        """One epoch's total microjoules for one mote."""
        return (
            self.transmit.transmission_cost(transmit_messages, transmit_words)
            + received_messages * self.receive_per_message_uj
            + self.listen_per_epoch_uj
            + self.cpu_per_epoch_uj
        )


@dataclass
class EnergyReport:
    """Aggregated energy figures for a run."""

    total_messages: int = 0
    total_words: int = 0
    total_uj: float = 0.0
    per_node_uj: Dict[NodeId, float] = field(default_factory=dict)

    def add_log(self, log: TransmissionLog, model: EnergyModel) -> None:
        """Fold one epoch's transmission log into the report."""
        self.total_messages += log.messages_sent
        self.total_words += log.words_sent
        self.total_uj += model.transmission_cost(log.messages_sent, log.words_sent)

    def add_node_words(
        self, per_node_words: Dict[NodeId, int], model: EnergyModel
    ) -> None:
        """Attribute per-node word loads to per-node energy."""
        for node, words in per_node_words.items():
            cost = model.transmission_cost(0, words)
            self.per_node_uj[node] = self.per_node_uj.get(node, 0.0) + cost
