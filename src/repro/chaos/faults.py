"""Deterministic fault injection: the plans and the channel-side runtime.

A :class:`FaultPlan` decides, per (sender, receiver, epoch), whether to
misbehave — force or kill a delivery, corrupt a synopsis payload, replay a
delivery, or delay control billing. Every decision is a pure keyed-hash
function of its arguments, like every other draw in this repository: the
epoch-blocked engine and the scalar oracle evaluate the hooks at different
times but with identical keys, so both see the *same* fault sequence, and a
fault scenario is fully reproducible from its spec string.

The built-in injectors (spec syntax in :mod:`repro.registry`):

* :class:`CorruptSynopsis` — sets a high bit in the FM sketch that carries
  a delivered payload's contributing count (a bit-flip in a synopsis row):
  the piggybacked sketch, or a Count query's own synopsis. The bit is
  the top level of a keyed-chosen bitmap, which a legitimate union of
  single-item insertions reaches with probability ~2^-31 — so the
  auditor's ``fm-or-monotonicity`` subset check trips deterministically.
* :class:`DuplicateDelivery` — a received payload is appended to the inbox
  twice (a replayed radio frame). Multi-path synopses absorb this by ODI;
  tree counts double-count the subtree, tripping ``tree-count-consistency``.
* :class:`DelayControl` — control-message billing reaches the per-node load
  maps only ``epochs`` later (the log is billed immediately), breaking
  ``billing-conservation`` for the deferral window.
* :class:`BaseStationCrash` — the base station hears nothing for a window
  of epochs (mid-run sink crash).
* :class:`Partition` — one node is cut off (both directions) for a window,
  the bridge-edge kill scenario.

:class:`ChaosRuntime` is the object the simulator attaches to the channel
(``channel.chaos``); it bundles the active plan with the optional
:class:`~repro.chaos.auditor.Auditor` and owns the deferred-control queue.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro._hashing import hash_key, hash_unit_from
from repro.errors import ConfigurationError
from repro.multipath.fm import BITS, FMSketch
from repro.network.placement import BASE_STATION, NodeId


class FaultPlan:
    """Base fault plan: every hook is a deterministic no-op.

    Subclasses override the hooks they care about. All hooks must be pure
    functions of their arguments (plus the plan's frozen parameters) — the
    two execution engines call them in different orders.
    """

    name = "fault"

    def deliver_override(
        self, sender: NodeId, receiver: NodeId, epoch: int
    ) -> Optional[bool]:
        """Force a delivery outcome (True/False), or None to leave it alone."""
        return None

    def corrupt(self, payload, sender: NodeId, receiver: NodeId, epoch: int):
        """Return the payload as the receiver sees it (possibly a corrupted
        copy); must never mutate ``payload`` — other receivers share it."""
        return payload

    def duplicate(self, sender: NodeId, receiver: NodeId, epoch: int) -> bool:
        """Whether this delivery is replayed (received twice)."""
        return False

    def control_delay(self, epoch: int) -> int:
        """Epochs to delay control billing issued at ``epoch`` (0 = none)."""
        return 0

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<FaultPlan {self.describe()}>"


class CorruptSynopsis(FaultPlan):
    """Bit-flip the sketch carrying a delivered payload's contributing count.

    That is the piggybacked ``count_sketch``; a payload without one carries
    a query whose own synopsis counts its contributors (Count), and that
    synopsis is flipped instead.
    """

    name = "corrupt"

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError("corruption rate must be in [0, 1]")
        self.rate = rate
        self.seed = seed
        self._draw_key = hash_key("fault-corrupt", seed)
        self._bucket_key = hash_key("fault-corrupt-bucket", seed)

    def corrupt(self, payload, sender: NodeId, receiver: NodeId, epoch: int):
        field = "synopsis" if payload.count_sketch is None else "count_sketch"
        sketch = getattr(payload, field)
        if not isinstance(sketch, FMSketch) or self.rate <= 0.0:
            return payload
        draw = hash_unit_from(self._draw_key, sender, receiver, epoch)
        if draw >= self.rate:
            return payload
        bucket = int(
            hash_unit_from(self._bucket_key, sender, receiver, epoch)
            * sketch.num_bitmaps
        ) % sketch.num_bitmaps
        # Top level of the chosen bitmap: P(legit insert sets it) ~ 2^-31,
        # so the corrupted sketch is (almost surely) no subset of any
        # legitimate union — exactly what OR-monotonicity auditing checks.
        bit = bucket * BITS + (BITS - 1)
        corrupted = FMSketch.from_packed(
            sketch.num_bitmaps, sketch._packed | (1 << bit)
        )
        return replace(payload, **{field: corrupted})

    def describe(self) -> str:
        return f"corrupt:{self.rate}:{self.seed}"


class DuplicateDelivery(FaultPlan):
    """Replay a delivered payload: the receiver's inbox sees it twice."""

    name = "duplicate"

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError("duplication rate must be in [0, 1]")
        self.rate = rate
        self.seed = seed
        self._draw_key = hash_key("fault-duplicate", seed)

    def duplicate(self, sender: NodeId, receiver: NodeId, epoch: int) -> bool:
        if self.rate <= 0.0:
            return False
        return hash_unit_from(self._draw_key, sender, receiver, epoch) < self.rate

    def describe(self) -> str:
        return f"duplicate:{self.rate}:{self.seed}"


class DelayControl(FaultPlan):
    """Delay control-message billing by a fixed number of epochs."""

    name = "delay"

    def __init__(self, epochs: int) -> None:
        if epochs < 1:
            raise ConfigurationError("control delay must be at least 1 epoch")
        self.epochs = epochs

    def control_delay(self, epoch: int) -> int:
        return self.epochs

    def describe(self) -> str:
        return f"delay:{self.epochs}"


class BaseStationCrash(FaultPlan):
    """The base station receives nothing in ``[start, start + duration)``."""

    name = "bscrash"

    def __init__(self, start: int, duration: int) -> None:
        if duration < 1:
            raise ConfigurationError("crash duration must be at least 1 epoch")
        self.start = start
        self.duration = duration

    def deliver_override(
        self, sender: NodeId, receiver: NodeId, epoch: int
    ) -> Optional[bool]:
        if receiver == BASE_STATION and (
            self.start <= epoch < self.start + self.duration
        ):
            return False
        return None

    def describe(self) -> str:
        return f"bscrash:{self.start}:{self.duration}"


class Partition(FaultPlan):
    """One node is radio-isolated (both directions) for a window of epochs.

    Aimed at bridge nodes: partitioning the sole upstream link of a subtree
    reproduces the bridge-edge kill scenario without touching membership.
    """

    name = "partition"

    def __init__(self, node: NodeId, start: int, duration: int) -> None:
        if duration < 1:
            raise ConfigurationError(
                "partition duration must be at least 1 epoch"
            )
        self.node = node
        self.start = start
        self.duration = duration

    def deliver_override(
        self, sender: NodeId, receiver: NodeId, epoch: int
    ) -> Optional[bool]:
        if (sender == self.node or receiver == self.node) and (
            self.start <= epoch < self.start + self.duration
        ):
            return False
        return None

    def describe(self) -> str:
        return f"partition:{self.node}:{self.start}:{self.duration}"


class CompositeFaultPlan(FaultPlan):
    """Several plans active at once; each hook folds over the parts in order.

    ``deliver_override`` takes the first non-None answer; ``corrupt`` chains
    (each part sees the previous part's output); ``duplicate`` is any-of;
    ``control_delay`` is the maximum.
    """

    name = "composite"

    def __init__(self, plans: Sequence[FaultPlan]) -> None:
        if not plans:
            raise ConfigurationError("a composite plan needs at least one part")
        self.plans: Tuple[FaultPlan, ...] = tuple(plans)

    def deliver_override(
        self, sender: NodeId, receiver: NodeId, epoch: int
    ) -> Optional[bool]:
        for plan in self.plans:
            forced = plan.deliver_override(sender, receiver, epoch)
            if forced is not None:
                return forced
        return None

    def corrupt(self, payload, sender: NodeId, receiver: NodeId, epoch: int):
        for plan in self.plans:
            payload = plan.corrupt(payload, sender, receiver, epoch)
        return payload

    def duplicate(self, sender: NodeId, receiver: NodeId, epoch: int) -> bool:
        return any(
            plan.duplicate(sender, receiver, epoch) for plan in self.plans
        )

    def control_delay(self, epoch: int) -> int:
        return max(plan.control_delay(epoch) for plan in self.plans)

    def describe(self) -> str:
        return "+".join(plan.describe() for plan in self.plans)


class ChaosRuntime:
    """The per-run chaos state the simulator attaches to the channel.

    Bundles the active :class:`FaultPlan` (or None, auditing only) with the
    optional :class:`~repro.chaos.auditor.Auditor`, tracks the current epoch
    (set by the simulator at churn boundaries, where control billing
    happens), and owns the deferred control-bill queue of the delay fault.
    The channel and the schemes guard every hook on ``channel.chaos is not
    None``, so fault-free runs execute the exact pre-chaos code paths.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, auditor=None) -> None:
        self.plan = plan
        self.auditor = auditor
        #: Epoch control billing is stamped with; the simulator keeps it
        #: current at the points where control traffic can occur.
        self.epoch = 0
        #: Deferred control bills: (release_epoch, sender, words, messages).
        self.deferred: List[Tuple[int, NodeId, int, int]] = []

    def checkpoint_state(self) -> Dict[str, object]:
        """The clock, the deferred bills and the auditor's totals."""
        state: Dict[str, object] = {
            "epoch": self.epoch,
            "deferred": [list(entry) for entry in self.deferred],
        }
        if self.auditor is not None:
            state["auditor"] = self.auditor.checkpoint_state()
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self.epoch = state["epoch"]
        self.deferred = [tuple(entry) for entry in state["deferred"]]
        if self.auditor is not None and "auditor" in state:
            self.auditor.restore_state(state["auditor"])

    # -- delivery hooks (called by Channel / DeliveryPlan) ------------------

    def deliver_override(
        self, sender: NodeId, receiver: NodeId, epoch: int
    ) -> Optional[bool]:
        if self.plan is None:
            return None
        return self.plan.deliver_override(sender, receiver, epoch)

    def override_table(self, success, senders, receivers, epochs) -> None:
        """Apply forced outcomes over a (pairs x epochs) block table."""
        plan = self.plan
        if plan is None:
            return
        for i in range(len(senders)):
            sender = senders[i]
            receiver = receivers[i]
            for j, epoch in enumerate(epochs):
                forced = plan.deliver_override(sender, receiver, epoch)
                if forced is not None:
                    success[i, j] = forced

    # -- payload hooks (called by the schemes' wave loops) ------------------

    def corrupt(self, payload, sender: NodeId, receiver: NodeId, epoch: int):
        if self.plan is None:
            return payload
        return self.plan.corrupt(payload, sender, receiver, epoch)

    def duplicate(self, sender: NodeId, receiver: NodeId, epoch: int) -> bool:
        if self.plan is None:
            return False
        return self.plan.duplicate(sender, receiver, epoch)

    # -- control billing (called by Channel.account_control) ---------------

    def defer_control(self, sender: NodeId, words: int, messages: int) -> bool:
        """Queue a control bill for later release; False = bill now."""
        plan = self.plan
        if plan is None:
            return False
        delay = plan.control_delay(self.epoch)
        if delay <= 0:
            return False
        self.deferred.append((self.epoch + delay, sender, words, messages))
        return True

    def flush_control(self, channel, epoch: Optional[int] = None) -> None:
        """Release deferred bills due at or before ``epoch`` (all if None).

        Released bills land in the channel's per-node load maps through
        :meth:`~repro.network.links.Channel.account_bulk` — the log was
        already billed at issue time, so conservation is restored.
        """
        if not self.deferred:
            return
        if epoch is None:
            due, keep = self.deferred, []
        else:
            due = [entry for entry in self.deferred if entry[0] <= epoch]
            keep = [entry for entry in self.deferred if entry[0] > epoch]
        if not due:
            return
        self.deferred = keep
        words_by: Dict[NodeId, int] = {}
        messages_by: Dict[NodeId, int] = {}
        for _release, sender, words, messages in due:
            words_by[sender] = words_by.get(sender, 0) + words
            messages_by[sender] = messages_by.get(sender, 0) + messages
        channel.account_bulk(words_by, messages_by)
