"""The lossy channel: per-transmission, per-receiver Bernoulli delivery.

Both aggregation families transmit once per node per epoch; the difference is
who listens. A tree node unicasts to its parent; a multi-path node's single
broadcast is heard (independently) by each lower-level ring neighbour. We
model each (sender, receiver, epoch, attempt) delivery as an independent
Bernoulli draw with the failure model's loss rate — the standard model in the
synopsis-diffusion analyses the paper builds on.

All draws are deterministic in (seed, sender, receiver, epoch, attempt), so
two schemes run over the same channel seed see *identical* loss patterns;
this is what makes scheme comparisons (TAG vs SD vs TD) paired rather than
noisy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as _np

from repro._hashing import hash_key, hash_unit_batch, hash_unit_from
from repro.errors import ConfigurationError
from repro.network.failures import FailureModel, loss_rates
from repro.network.placement import Deployment, NodeId


@dataclass
class TransmissionLog:
    """Counters for one epoch of channel activity.

    Attributes:
        transmissions: physical sends (a broadcast counts once).
        deliveries: successful (sender, receiver) receptions.
        drops: failed (sender, receiver) receptions.
        words_sent: total payload words across transmissions.
        messages_sent: total TinyDB messages across transmissions (one
            transmission may need several messages if its payload is large).
    """

    transmissions: int = 0
    deliveries: int = 0
    drops: int = 0
    words_sent: int = 0
    messages_sent: int = 0

    def merge(self, other: "TransmissionLog") -> None:
        """Accumulate another log into this one."""
        self.transmissions += other.transmissions
        self.deliveries += other.deliveries
        self.drops += other.drops
        self.words_sent += other.words_sent
        self.messages_sent += other.messages_sent


@dataclass(frozen=True)
class Transmission:
    """One logical transmission queued for a level-synchronous batch.

    Attributes:
        sender: transmitting node.
        receivers: nodes listening for this transmission.
        words: payload size in 32-bit words.
        messages: TinyDB messages the payload occupies.
        attempts: total send attempts (1 = no retransmission).
    """

    sender: NodeId
    receivers: Tuple[NodeId, ...]
    words: int
    messages: int = 1
    attempts: int = 1


def transmit_sequential(
    channel: "Channel", transmissions: Sequence[Transmission], epoch: int
) -> List[List[NodeId]]:
    """Run a level through the scalar :meth:`Channel.transmit` path.

    The per-node reference the planned path (:meth:`Channel.plan_epochs` +
    :meth:`Channel.transmit_epochs`) must reproduce bit-for-bit; the
    schemes' scalar oracle wave (``use_batch=False``) transmits through it.
    """
    return [
        channel.transmit(
            item.sender,
            item.receivers,
            epoch,
            item.words,
            item.messages,
            item.attempts,
        )
        for item in transmissions
    ]


@dataclass(frozen=True)
class _PlanLevel:
    """One level's flattened pair structure plus its (pairs x epochs)
    bool outcome matrix."""

    senders: Tuple[NodeId, ...]
    receiver_sets: Tuple[Tuple[NodeId, ...], ...]
    attempts: Tuple[int, ...]
    spans: Tuple[Tuple[int, int], ...]
    flat_receivers: Tuple[NodeId, ...]
    success: _np.ndarray


class DeliveryPlan:
    """Precomputed delivery outcomes for a fixed schedule over an epoch block.

    Within one adaptation interval a scheme's transmission structure — who
    sends, who listens, how many attempts — is constant; only payload sizes
    vary by epoch. Delivery draws depend on none of the varying parts, so the
    whole (edge x epoch) outcome grid of a block can be drawn up front: per
    level, one vectorized :func:`repro._hashing.hash_unit_batch` pass per
    attempt over every (pair, epoch) cell, against per-epoch loss-rate
    columns (a :class:`~repro.network.failures.FailureSchedule` that changes
    loss mid-block is resolved epoch by epoch, exactly like the scalar
    path).

    A plan is valid only while the level structure and the channel's model
    version stay fixed: :meth:`Channel.transmit_epochs` re-validates both and
    raises if a scheme's schedule diverged from what was planned or churn
    called :meth:`Channel.bump_model_version`. Build a fresh plan after every
    adaptation.
    """

    def __init__(
        self,
        channel: "Channel",
        levels: Sequence[Sequence[Transmission]],
        epochs: Sequence[int],
    ) -> None:
        epoch_list = [int(epoch) for epoch in epochs]
        if not epoch_list:
            raise ConfigurationError("a delivery plan needs at least one epoch")
        self._epoch_columns = {epoch: j for j, epoch in enumerate(epoch_list)}
        if len(self._epoch_columns) != len(epoch_list):
            raise ConfigurationError("plan epochs must be distinct")
        self._channel = channel
        self._model_version = channel._model_version
        self._levels = [
            self._build_level(channel, level, epoch_list) for level in levels
        ]

    def _check_level(
        self,
        channel: "Channel",
        level: int,
        transmissions: Sequence[Transmission],
    ) -> _PlanLevel:
        """Validate channel identity, model freshness and level structure."""
        if channel is not self._channel:
            raise ConfigurationError("delivery plan belongs to another channel")
        if channel._model_version != self._model_version:
            raise ConfigurationError(
                "stale delivery plan: the membership changed after planning"
            )
        entry = self._levels[level]
        if len(transmissions) != len(entry.senders):
            raise ConfigurationError(
                "transmission schedule diverged from the delivery plan"
            )
        for item, sender, receivers, attempts in zip(
            transmissions, entry.senders, entry.receiver_sets, entry.attempts
        ):
            if (
                item.sender != sender
                or item.attempts != attempts
                or tuple(item.receivers) != receivers
            ):
                raise ConfigurationError(
                    "transmission schedule diverged from the delivery plan"
                )
        return entry

    def outcomes(
        self,
        channel: "Channel",
        level: int,
        epoch: int,
        transmissions: Sequence[Transmission],
        check: bool = True,
    ) -> Tuple[Sequence[bool], Tuple[Tuple[int, int], ...], Tuple[NodeId, ...]]:
        """The planned (success column, spans, flat receivers) for one level.

        Validates that the caller's transmissions still match the planned
        structure and that the channel's failure model has not changed since
        the plan was built — both would silently break byte-identity. A
        caller that already validated the level for this block (via
        :meth:`level_table`) may pass ``check=False`` to skip the per-item
        structure walk; channel identity, model freshness and the epoch
        column are always verified.
        """
        if check:
            entry = self._check_level(channel, level, transmissions)
        else:
            if channel is not self._channel:
                raise ConfigurationError(
                    "delivery plan belongs to another channel"
                )
            if channel._model_version != self._model_version:
                raise ConfigurationError(
                    "stale delivery plan: the membership changed after "
                    "planning"
                )
            entry = self._levels[level]
        column = self._epoch_columns.get(epoch)
        if column is None:
            raise ConfigurationError(f"epoch {epoch} is outside the planned block")
        return entry.success[:, column], entry.spans, entry.flat_receivers

    def level_table(
        self,
        channel: "Channel",
        level: int,
        transmissions: Sequence[Transmission],
    ):
        """The whole (pairs x epochs) outcome block for one level, validated.

        Returns ``(success, spans, flat_receivers)`` where ``success`` is a
        bool matrix whose column ``j`` corresponds to the ``j``-th planned
        epoch (the fused kernels run levels over the full block at once, so
        they consume the matrix instead of per-epoch columns). Runs the
        same structure validation as :meth:`outcomes` — once per block
        instead of once per epoch.
        """
        entry = self._check_level(channel, level, transmissions)
        return entry.success, entry.spans, entry.flat_receivers

    @staticmethod
    def _build_level(
        channel: "Channel",
        transmissions: Sequence[Transmission],
        epochs: List[int],
    ) -> _PlanLevel:
        senders: List[NodeId] = []
        receiver_sets: List[Tuple[NodeId, ...]] = []
        attempts: List[int] = []
        flat_senders: List[NodeId] = []
        flat_receivers: List[NodeId] = []
        flat_attempts: List[int] = []
        spans: List[Tuple[int, int]] = []
        for item in transmissions:
            receivers = tuple(item.receivers)
            senders.append(item.sender)
            receiver_sets.append(receivers)
            attempts.append(item.attempts)
            start = len(flat_senders)
            for receiver in receivers:
                flat_senders.append(item.sender)
                flat_receivers.append(receiver)
                flat_attempts.append(item.attempts)
            spans.append((start, len(flat_senders)))
        success = DeliveryPlan._outcome_table(
            channel, flat_senders, flat_receivers, flat_attempts, epochs
        )
        return _PlanLevel(
            senders=tuple(senders),
            receiver_sets=tuple(receiver_sets),
            attempts=tuple(attempts),
            spans=tuple(spans),
            flat_receivers=tuple(flat_receivers),
            success=success,
        )

    @staticmethod
    def _outcome_table(
        channel: "Channel",
        senders: Sequence[NodeId],
        receivers: Sequence[NodeId],
        attempts_per_pair: Sequence[int],
        epochs: List[int],
    ):
        """Success flags for every (pair, epoch) cell of one level.

        Cell (i, j) equals ``any(channel.delivered(senders[i], receivers[i],
        epochs[j], attempt) for attempt in range(attempts_per_pair[i]))`` —
        the scalar path's outcome, computed in one vectorized sweep per
        attempt.
        """
        num_pairs = len(senders)
        num_epochs = len(epochs)
        if num_pairs == 0:
            return _np.zeros((0, num_epochs), dtype=bool)
        loss = _np.empty((num_pairs, num_epochs), dtype=_np.float64)
        for column, epoch in enumerate(epochs):
            loss[:, column] = loss_rates(
                channel._failure_model,
                channel._deployment,
                senders,
                receivers,
                epoch,
            )
        success = loss <= 0.0
        if not bool(success.all()):
            attempts_column = _np.asarray(attempts_per_pair, dtype=_np.int64)[
                :, None
            ]
            cells = num_pairs * num_epochs
            sender_grid = _np.repeat(
                _np.asarray(senders, dtype=_np.int64), num_epochs
            )
            receiver_grid = _np.repeat(
                _np.asarray(receivers, dtype=_np.int64), num_epochs
            )
            epoch_grid = _np.tile(_np.asarray(epochs, dtype=_np.int64), num_pairs)
            for attempt in range(int(attempts_column.max())):
                undecided = (~success) & (attempts_column > attempt) & (loss < 1.0)
                if not bool(undecided.any()):
                    break
                draws = _np.asarray(
                    hash_unit_batch(
                        channel._draw_key,
                        sender_grid,
                        receiver_grid,
                        epoch_grid,
                        _np.full(cells, attempt, dtype=_np.int64),
                    )
                ).reshape(num_pairs, num_epochs)
                success |= undecided & (draws >= loss)
        chaos = channel.chaos
        if chaos is not None:
            # Draws are pure keyed hashes, so forcing an outcome after the
            # sweep is identical to the scalar path's pre-draw short-circuit.
            chaos.override_table(success, senders, receivers, epochs)
        return success


class Channel:
    """Draws delivery outcomes for transmissions under a failure model.

    ``chaos`` (class default ``None``) is the fault-injection/audit runtime
    the simulator attaches when a :class:`~repro.chaos.FaultPlan` or
    :class:`~repro.chaos.Auditor` is configured. Every hook below guards on
    it, so fault-free channels run the exact original code path.
    """

    #: Attached :class:`~repro.chaos.ChaosRuntime`, or None (the default).
    chaos = None

    def __init__(
        self,
        deployment: Deployment,
        failure_model: FailureModel,
        seed: int = 0,
    ) -> None:
        self._deployment = deployment
        self._failure_model = failure_model
        #: Every delivery draw's key starts ``("channel", seed)``.
        self._draw_key = hash_key("channel", seed)
        self._model_version = 0
        self.log = TransmissionLog()
        self._per_node_words: Dict[NodeId, int] = {}
        self._per_node_messages: Dict[NodeId, int] = {}

    @property
    def deployment(self) -> Deployment:
        """The deployment this channel serves."""
        return self._deployment

    @property
    def failure_model(self) -> FailureModel:
        """The failure model currently in force."""
        return self._failure_model

    def bump_model_version(self) -> None:
        """Invalidate every outstanding :class:`DeliveryPlan` in place.

        Called when something a plan was drawn against changed — node
        churn removes or adds (sender, receiver) edges, so outcomes planned
        over the old membership must never be replayed. Schemes rebuild
        their plans at the next block anyway; this makes replaying a stale
        one a loud error instead of a silent wrong answer.
        """
        self._model_version += 1

    def account_control(
        self, sender: NodeId, words: int, messages: int = 1
    ) -> None:
        """Bill a control transmission (e.g. a tree-repair handshake).

        Control traffic — parent adoption after churn, probes — costs
        energy like any other send: it lands in the cumulative per-node
        load maps (which feed :meth:`per_node_words` and the end-of-run
        energy report) and in the current log. No delivery is drawn:
        control handshakes are acknowledged exchanges, not payloads whose
        loss the schemes model.

        When a delayed-control fault is active, the log is billed now but
        the per-node load update is deferred (the chaos runtime replays it
        at the release epoch) — the asymmetry a billing-conservation audit
        exists to catch.
        """
        self.log.transmissions += 1
        self.log.words_sent += words
        self.log.messages_sent += messages
        chaos = self.chaos
        if chaos is not None and chaos.defer_control(sender, words, messages):
            return
        self._per_node_words[sender] = (
            self._per_node_words.get(sender, 0) + words
        )
        self._per_node_messages[sender] = (
            self._per_node_messages.get(sender, 0) + messages
        )

    def loss_rate(self, sender: NodeId, receiver: NodeId, epoch: int) -> float:
        """The loss probability for one (sender -> receiver) attempt."""
        return self._failure_model.loss_rate(
            self._deployment, sender, receiver, epoch
        )

    def delivered(
        self, sender: NodeId, receiver: NodeId, epoch: int, attempt: int = 0
    ) -> bool:
        """Draw whether one transmission attempt is received.

        Deterministic in (seed, sender, receiver, epoch, attempt).
        """
        chaos = self.chaos
        if chaos is not None:
            forced = chaos.deliver_override(sender, receiver, epoch)
            if forced is not None:
                return forced
        loss = self.loss_rate(sender, receiver, epoch)
        if loss <= 0.0:
            return True
        if loss >= 1.0:
            return False
        draw = hash_unit_from(self._draw_key, sender, receiver, epoch, attempt)
        return draw >= loss

    def transmit(
        self,
        sender: NodeId,
        receivers: Iterable[NodeId],
        epoch: int,
        words: int,
        messages: int = 1,
        attempts: int = 1,
    ) -> List[NodeId]:
        """Perform one logical transmission and return who received it.

        A broadcast to k receivers is ONE physical transmission (the radio
        medium is shared); each receiver draws delivery independently. With
        ``attempts > 1`` (retransmissions, Figure 9b) every attempt is a fresh
        physical transmission and a receiver hears the payload if *any*
        attempt reaches it.

        Args:
            sender: transmitting node.
            receivers: nodes listening for this transmission.
            epoch: current epoch (keys the loss draw).
            words: payload size in 32-bit words (for energy accounting).
            messages: number of TinyDB messages this payload occupies.
            attempts: total send attempts (1 = no retransmission).

        Returns:
            The sorted list of receivers that got the payload.
        """
        receiver_list = list(receivers)
        self.log.transmissions += attempts
        self.log.words_sent += words * attempts
        self.log.messages_sent += messages * attempts
        self._per_node_words[sender] = (
            self._per_node_words.get(sender, 0) + words * attempts
        )
        self._per_node_messages[sender] = (
            self._per_node_messages.get(sender, 0) + messages * attempts
        )
        heard: List[NodeId] = []
        for receiver in receiver_list:
            success = any(
                self.delivered(sender, receiver, epoch, attempt)
                for attempt in range(attempts)
            )
            if success:
                heard.append(receiver)
                self.log.deliveries += 1
            else:
                self.log.drops += 1
        return sorted(heard)

    def transmit_batch(
        self, transmissions: Sequence[Transmission], epoch: int
    ) -> List[List[NodeId]]:
        """One level, one epoch: :meth:`plan_epochs` + :meth:`transmit_epochs`.

        Bit-identical to calling :meth:`transmit` once per item in order
        (:func:`transmit_sequential`); heard lists come back in the order
        the transmissions were given.
        """
        plan = self.plan_epochs([transmissions], [epoch])
        return self.transmit_epochs(transmissions, epoch, plan, 0, checked=True)

    def plan_epochs(
        self,
        levels: Sequence[Sequence[Transmission]],
        epochs: Sequence[int],
    ) -> DeliveryPlan:
        """Precompute every delivery outcome for a block of epochs.

        ``levels`` lists, per transmission level, the transmissions that
        will be queued each epoch of the block; only sender, receivers and
        attempts matter (payload words/messages vary per epoch and do not
        affect delivery). The returned plan backs
        :meth:`transmit_epochs` and stays valid until the level structure
        or the failure model changes.
        """
        return DeliveryPlan(self, levels, epochs)

    def account_bulk(
        self,
        words_by_node: Dict[NodeId, int],
        messages_by_node: Dict[NodeId, int],
    ) -> None:
        """Merge block-level per-node billing into the cumulative load maps.

        The fused kernels bill a whole epoch block per node in one pass and
        hand the totals here; epoch-level counters (the
        :class:`TransmissionLog` fields) stay with the kernels, which build
        one log per epoch for the simulator's energy accounting. Addition is
        commutative, so merging block totals is identical to the per-epoch
        path's incremental ``get(node, 0) +`` updates.
        """
        per_words = self._per_node_words
        per_messages = self._per_node_messages
        for node, words in words_by_node.items():
            per_words[node] = per_words.get(node, 0) + int(words)
        for node, messages in messages_by_node.items():
            per_messages[node] = per_messages.get(node, 0) + int(messages)

    def transmit_epochs(
        self,
        transmissions: Sequence[Transmission],
        epoch: int,
        plan: DeliveryPlan,
        level: int,
        checked: bool = False,
    ) -> List[List[NodeId]]:
        """Transmit one level at ``epoch`` against ``plan``'s outcomes.

        Bit-identical to ``transmit_sequential(self, transmissions,
        epoch)``: accounting runs in the same transmission order and the
        success flags were drawn from the same keyed hashes — only *when*
        the draws happened differs (once per block instead of per send).
        ``checked=True`` promises the caller already validated this level's
        structure against the plan for the current block (one
        :meth:`DeliveryPlan.level_table` call), skipping the per-epoch
        re-walk.
        """
        success, spans, flat_receivers = plan.outcomes(
            self, level, epoch, transmissions, check=not checked
        )
        # Scalar-indexing a numpy column pays ~100ns per element; the heard
        # loop below touches every pair, so convert once.
        success = success.tolist()
        log = self.log
        per_words = self._per_node_words
        per_messages = self._per_node_messages
        for item in transmissions:
            sender = item.sender
            attempts = item.attempts
            log.transmissions += attempts
            log.words_sent += item.words * attempts
            log.messages_sent += item.messages * attempts
            per_words[sender] = per_words.get(sender, 0) + item.words * attempts
            per_messages[sender] = (
                per_messages.get(sender, 0) + item.messages * attempts
            )
        heard_lists: List[List[NodeId]] = []
        for (start, stop) in spans:
            heard = [flat_receivers[i] for i in range(start, stop) if success[i]]
            log.deliveries += len(heard)
            log.drops += (stop - start) - len(heard)
            heard_lists.append(sorted(heard))
        return heard_lists

    def per_node_words(self) -> Dict[NodeId, int]:
        """Cumulative words transmitted per node (load accounting).

        Deployment-complete: sensors that never transmitted report an
        explicit zero, so load maps (Figure 8 style) show dead or silent
        nodes instead of silently dropping them.
        """
        complete = {node: 0 for node in self._deployment.sensor_ids}
        complete.update(self._per_node_words)
        return complete

    def per_node_messages(self) -> Dict[NodeId, int]:
        """Cumulative messages transmitted per node (deployment-complete)."""
        complete = {node: 0 for node in self._deployment.sensor_ids}
        complete.update(self._per_node_messages)
        return complete

    def reset_log(self) -> TransmissionLog:
        """Return the current log and start a fresh one."""
        finished = self.log
        self.log = TransmissionLog()
        return finished

    def checkpoint_state(self) -> Dict[str, Dict[str, int]]:
        """The cumulative per-node bills, the channel's only history (every
        delivery draw is a keyed hash, recomputed on resume)."""
        return {
            "words": {str(node): n for node, n in self._per_node_words.items()},
            "messages": {
                str(node): n for node, n in self._per_node_messages.items()
            },
        }

    def restore_state(self, state: Dict[str, Dict[str, int]]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self._per_node_words = {int(node): n for node, n in state["words"].items()}
        self._per_node_messages = {
            int(node): n for node, n in state["messages"].items()
        }
