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

import itertools
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as _np

from repro._hashing import hash_key, hash_unit_from, hash_unit_outer
from repro.errors import ConfigurationError
from repro.network.failures import FailureModel, loss_rates
from repro.network.placement import BASE_STATION, Deployment, NodeId


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


def _pair_arrays(transmissions: Sequence[Transmission]):
    """One level's ``(senders, attempts, receiver counts, flat receivers)``
    as int64 arrays, in schedule order."""
    count = len(transmissions)
    senders = _np.fromiter(
        (item.sender for item in transmissions), dtype=_np.int64, count=count
    )
    attempts = _np.fromiter(
        (item.attempts for item in transmissions), dtype=_np.int64, count=count
    )
    fanout = _np.fromiter(
        (len(item.receivers) for item in transmissions),
        dtype=_np.int64,
        count=count,
    )
    receivers = _np.fromiter(
        itertools.chain.from_iterable(item.receivers for item in transmissions),
        dtype=_np.int64,
        count=int(fanout.sum()),
    )
    return senders, attempts, fanout, receivers


@dataclass(frozen=True, eq=False)
class PairLevel:
    """One level's delivery pairs as arrays: a (sender, receiver) pair per
    receiver of each transmission, in schedule order.

    Attributes:
        senders: each transmission's sender.
        attempts: each transmission's send attempts.
        rows: the senders' rows of the structure's row index.
        span_starts, span_stops: each transmission's slice of the pair axis.
        pair_item: each pair's transmission, as a position in ``senders``.
        pair_senders: each pair's sender.
        receivers: each pair's receiver.
        recv_rows: each pair's receiver row, -1 for a receiver that neither
            sends nor is the base station.
    """

    senders: _np.ndarray
    attempts: _np.ndarray
    rows: _np.ndarray
    span_starts: _np.ndarray
    span_stops: _np.ndarray
    pair_item: _np.ndarray
    pair_senders: _np.ndarray
    receivers: _np.ndarray
    recv_rows: _np.ndarray

    def matches(self, transmissions: Sequence[Transmission]) -> bool:
        """Whether ``transmissions`` have this level's senders, receivers
        and attempts, in this order."""
        senders, attempts, fanout, receivers = _pair_arrays(transmissions)
        return (
            _np.array_equal(senders, self.senders)
            and _np.array_equal(attempts, self.attempts)
            and _np.array_equal(fanout, self.span_stops - self.span_starts)
            and _np.array_equal(receivers, self.receivers)
        )


class DeliveryStructure:
    """Who sends to whom, level by level: the part of a schedule that delivery
    draws depend on, built once.

    Within one labelling of the wave the transmission structure — who sends,
    who listens, how many attempts — is constant; only payload sizes vary by
    epoch. A :class:`~repro.core.wave.WaveLayout` builds its structure once
    and every block drawn against it (:meth:`Channel.plan_epochs`) draws
    only its success tables.

    The *row index* numbers every sender in schedule order, level after
    level, then the base station (which never transmits): row ``i`` is
    ``nodes[i]``, and ``base_row`` is the last.
    """

    def __init__(self, levels: Sequence[Sequence[Transmission]]) -> None:
        arrays = [_pair_arrays(level) for level in levels]
        self.nodes = _np.concatenate(
            [senders for senders, _, _, _ in arrays]
            + [_np.array([BASE_STATION], dtype=_np.int64)]
        )
        self.base_row = len(self.nodes) - 1
        #: The senders' rows of ``nodes``: all but the base station.
        self.senders = self.nodes[: self.base_row]
        # A dense node -> row table; node ids are small non-negative ints.
        size = 1 + max(
            [int(self.nodes.max())]
            + [int(receivers.max()) for _, _, _, receivers in arrays if len(receivers)]
        )
        row_of = _np.full(size, -1, dtype=_np.int64)
        row_of[self.nodes] = _np.arange(len(self.nodes))
        self.levels: Tuple[PairLevel, ...] = ()
        first = 0
        for senders, attempts, fanout, receivers in arrays:
            stops = _np.cumsum(fanout)
            pair_item = _np.repeat(_np.arange(len(senders)), fanout)
            self.levels += (
                PairLevel(
                    senders=senders,
                    attempts=attempts,
                    rows=_np.arange(first, first + len(senders)),
                    span_starts=stops - fanout,
                    span_stops=stops,
                    pair_item=pair_item,
                    pair_senders=senders[pair_item],
                    receivers=receivers,
                    recv_rows=row_of[receivers],
                ),
            )
            first += len(senders)


class DeliveryPlan:
    """The delivery outcomes of one block of epochs over a fixed structure.

    Delivery draws depend on nothing a payload carries, so a block's whole
    (pair x epoch) outcome grid is drawn up front: per level, one vectorized
    :func:`repro._hashing.hash_unit_outer` pass per attempt over every
    (pair, epoch) cell, against per-epoch loss-rate columns (a
    :class:`~repro.network.failures.FailureSchedule` that changes loss
    mid-block is resolved epoch by epoch, exactly like the scalar path).
    ``tables[level]`` is that level's ``(pairs, epochs)`` bool matrix; the
    pairs themselves are the :class:`DeliveryStructure`'s, which outlives
    the plan.

    A plan is valid only while the structure and the channel's model
    version stay fixed: :meth:`Channel.transmit_epochs` re-validates both and
    raises if a scheme's schedule diverged from what was planned or churn
    called :meth:`Channel.bump_model_version`. Draw a fresh plan for every
    block.
    """

    def __init__(
        self,
        channel: "Channel",
        structure: DeliveryStructure,
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
        self.structure = structure
        self.tables = [
            self._outcome_table(channel, level, epoch_list)
            for level in structure.levels
        ]

    def outcomes(
        self,
        channel: "Channel",
        level: int,
        epoch: int,
        transmissions: Sequence[Transmission],
        check: bool = True,
    ) -> Tuple[Sequence[bool], Tuple[Tuple[int, int], ...], Tuple[NodeId, ...]]:
        """The planned (success column, spans, flat receivers) for one level.

        Validates that the channel's failure model has not changed since the
        plan was drawn and, unless ``check`` is False (a caller that built
        the plan from these very transmissions), that the caller's
        transmissions still match the planned structure — both would
        silently break byte-identity. Channel identity and the epoch column
        are always verified.
        """
        if channel is not self._channel:
            raise ConfigurationError("delivery plan belongs to another channel")
        if channel._model_version != self._model_version:
            raise ConfigurationError(
                "stale delivery plan: the membership changed after planning"
            )
        entry = self.structure.levels[level]
        if check and not entry.matches(transmissions):
            raise ConfigurationError(
                "transmission schedule diverged from the delivery plan"
            )
        column = self._epoch_columns.get(epoch)
        if column is None:
            raise ConfigurationError(f"epoch {epoch} is outside the planned block")
        return (
            self.tables[level][:, column],
            tuple(zip(entry.span_starts.tolist(), entry.span_stops.tolist())),
            tuple(entry.receivers.tolist()),
        )

    @staticmethod
    def _outcome_table(
        channel: "Channel", level: PairLevel, epochs: List[int]
    ) -> _np.ndarray:
        """Success flags for every (pair, epoch) cell of one level.

        Cell (i, j) equals ``any(channel.delivered(sender, receiver,
        epochs[j], attempt) for attempt in range(attempts))`` of pair ``i``
        — the scalar path's outcome, computed in one vectorized sweep per
        attempt.
        """
        senders, receivers = level.pair_senders, level.receivers
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
            attempts_column = level.attempts[level.pair_item][:, None]
            for attempt in range(int(attempts_column.max())):
                undecided = (~success) & (attempts_column > attempt) & (loss < 1.0)
                if not bool(undecided.any()):
                    break
                draws = hash_unit_outer(
                    channel._draw_key, (senders, receivers), epochs, attempt
                )
                success |= undecided & (draws >= loss)
        chaos = channel.chaos
        if chaos is not None:
            # Draws are pure keyed hashes, so forcing an outcome after the
            # sweep is identical to the scalar path's pre-draw short-circuit.
            chaos.override_table(
                success, senders.tolist(), receivers.tolist(), epochs
            )
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
        self._words_by_node: Dict[NodeId, int] = {}
        self._messages_by_node: Dict[NodeId, int] = {}
        #: Block bills not yet in the maps: ``(senders, words, messages)``
        #: arrays, summed while consecutive blocks bill the same senders.
        self._row_bills = None

    @property
    def _per_node_words(self) -> Dict[NodeId, int]:
        """Cumulative words per node that has transmitted, in first-billed
        order (every read settles the pending block bills first)."""
        self._settle_rows()
        return self._words_by_node

    @property
    def _per_node_messages(self) -> Dict[NodeId, int]:
        """Cumulative messages per node, as :attr:`_per_node_words`."""
        self._settle_rows()
        return self._messages_by_node

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
        over the old membership must never be replayed. Schemes draw a
        fresh plan every block anyway; this makes replaying a stale one a
        loud error instead of a silent wrong answer.
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
        levels: "DeliveryStructure | Sequence[Sequence[Transmission]]",
        epochs: Sequence[int],
    ) -> DeliveryPlan:
        """Draw every delivery outcome of a block of epochs.

        ``levels`` is a :class:`DeliveryStructure` (a layout's, built once
        and drawn against block after block) or, per transmission level,
        the transmissions that will be queued each epoch of the block, of
        which only sender, receivers and attempts matter (payload
        words/messages vary per epoch and do not affect delivery). The
        returned plan backs :meth:`transmit_epochs` and stays valid until
        the failure model changes.
        """
        if not isinstance(levels, DeliveryStructure):
            levels = DeliveryStructure(levels)
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
        for per_node, bills in (
            (self._per_node_words, words_by_node),
            (self._per_node_messages, messages_by_node),
        ):
            # One C-level pass per map: old total plus the block's, updated
            # in the bills' order (new nodes are appended in that order).
            totals = map(
                operator.add,
                map(per_node.get, bills, itertools.repeat(0)),
                bills.values(),
            )
            per_node.update(zip(bills, totals))

    def account_rows(
        self, senders: _np.ndarray, words: _np.ndarray, messages: _np.ndarray
    ) -> None:
        """Bill a block's per-sender totals: ``senders[i]`` sent ``words[i]``
        words in ``messages[i]`` messages.

        Blocks that bill the same ``senders`` array one after another add up
        as arrays, and reach the per-node maps in one :meth:`account_bulk`
        at their next read — the order and the totals a merge per block
        would give, without a per-node pass per block.
        """
        pending = self._row_bills
        if pending is not None and pending[0] is senders:
            _, pending_words, pending_messages = pending
            pending_words += words
            pending_messages += messages
            return
        self._settle_rows()
        self._row_bills = (senders, words.copy(), messages.copy())

    def _settle_rows(self) -> None:
        """Merge the pending block bills into the per-node maps."""
        pending = self._row_bills
        if pending is None:
            return
        self._row_bills = None
        senders = pending[0].tolist()
        self.account_bulk(
            dict(zip(senders, pending[1].tolist())),
            dict(zip(senders, pending[2].tolist())),
        )

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
        ``checked=True`` promises the plan was drawn from these very
        transmissions, skipping the structure comparison.
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
        self._row_bills = None
        self._words_by_node = {int(node): n for node, n in state["words"].items()}
        self._messages_by_node = {
            int(node): n for node, n in state["messages"].items()
        }
