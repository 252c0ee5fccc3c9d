"""The epoch-driven execution engine.

One *epoch* is one complete level-by-level aggregation wave: every node
transmits once (possibly retransmitting), partial results flow ring-by-ring
toward the base station, and the base station emits one answer. Continuous
queries repeat this every epoch; the paper collects an answer per epoch for
100 epochs (400 for the timeline experiment) after a warm-up during which the
topology stabilises.

The simulator is scheme-agnostic: anything implementing
:class:`AggregationScheme` (TAG, synopsis diffusion, Tributary-Delta, or the
frequent-items variants) can be driven by it. It owns the clock, the channel,
truth computation, and metric bookkeeping; schemes own topology and algorithm
state.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.network.churn import DynamicMembership
from repro.network.energy import EnergyModel, EnergyReport
from repro.network.failures import FailureModel
from repro.network.links import Channel, TransmissionLog
from repro.network.placement import Deployment, NodeId

#: A workload maps (node, epoch) to that node's local query result.
ReadingFn = Callable[[NodeId, int], float]


def gather_reading_block(
    readings: ReadingFn, nodes: Sequence[NodeId], epochs: Sequence[int]
) -> np.ndarray:
    """Many epochs' readings for many nodes as a float64 (epochs, nodes) matrix.

    Every engine reads readings in this one form: row ``j`` holds
    ``[readings(node, epochs[j]) for node in nodes]``. Workloads exposing
    ``block(nodes, epochs)`` (the built-in streams and windows) fill the
    matrix without a Python object per cell — a multi-query workload's
    returns one block per query; a plain callable is asked cell by cell.
    """
    block = getattr(readings, "block", None)
    if block is not None:
        return block(nodes, epochs)
    return np.array(
        [[readings(node, epoch) for node in nodes] for epoch in epochs],
        dtype=np.float64,
    ).reshape(len(epochs), len(nodes))


def exact_over(
    aggregate, readings: ReadingFn, nodes: Sequence[NodeId], epoch: int
) -> float:
    """The loss-free answer of ``aggregate`` over ``nodes`` at one epoch.

    Ground truth draws its **own** readings — it is the oracle the schemes'
    estimates are scored against, so it never reuses a matrix a kernel
    computed. The epoch's row goes to ``Aggregate.exact_array`` with the
    row's node ids (GROUP BY and the region filter key on them); a
    multi-query workload's is one row per query.
    """
    rows = gather_reading_block(readings, nodes, (epoch,))
    if isinstance(rows, tuple):
        return aggregate.exact_array(tuple(slot[0] for slot in rows), nodes)
    return aggregate.exact_array(rows[0], nodes)


def relative_deviation(estimate: float, truth: float) -> float:
    """``(estimate - truth) / truth``, the term the RMS error squares.

    0.0 where no relative error is measured: a zero truth, or a non-finite
    one (a Min/Max over no reading is +/-inf).
    """
    if truth == 0 or not math.isfinite(truth):
        return 0.0
    return (estimate - truth) / truth


@dataclass
class EpochOutcome:
    """What a scheme reports for one epoch.

    Attributes:
        estimate: the base station's answer for the epoch.
        contributing: ground-truth number of sensors accounted for in the
            answer (the simulator can see this; a real base station cannot).
        contributing_estimate: the base station's own (approximate) count of
            contributing sensors — this is what drives adaptation.
        extra: free-form per-scheme diagnostics (e.g. delta-region size).
    """

    estimate: float
    contributing: int
    contributing_estimate: float
    extra: Dict[str, object] = field(default_factory=dict)


class AggregationScheme(Protocol):
    """The interface every aggregation scheme implements.

    ``run_epoch`` is the scalar reference wave. Schemes may additionally
    implement ``run_epochs(epochs, channel, readings) ->
    List[Tuple[EpochOutcome, TransmissionLog]]``: the epoch-blocked engine,
    executing a whole block against one precomputed
    :class:`~repro.network.links.DeliveryPlan` and returning per-epoch
    (outcome, log) pairs byte-identical to :func:`run_epochs_scalar` under
    any split of the epochs into blocks. The simulator always drives
    ``run_epochs``; a scheme without one gets :func:`run_epochs_scalar`.

    Running under node churn additionally requires
    ``on_membership_change(update)``: the simulator passes each applied
    :class:`~repro.network.churn.MembershipUpdate` (repaired tree, re-rung
    levels, live set) and the scheme rebuilds its per-level structures; the
    built-in TAG/SD/TD schemes all implement it.
    """

    name: str

    def run_epoch(self, epoch: int, channel: Channel, readings: ReadingFn) -> EpochOutcome:
        """Execute one aggregation wave and return the epoch's outcome."""
        ...

    def exact_answer(self, epoch: int, readings: ReadingFn) -> float:
        """The loss-free answer over all sensors (ground truth)."""
        ...

    def adapt(self, epoch: int, outcome: EpochOutcome) -> None:
        """Adaptation hook, called at the configured interval."""
        ...


def run_epochs_scalar(
    scheme: AggregationScheme,
    epochs: Sequence[int],
    channel: Channel,
    readings: ReadingFn,
) -> List[Tuple[EpochOutcome, TransmissionLog]]:
    """The ``run_epochs`` contract by looping the scalar ``run_epoch``.

    The oracle every blocked engine must reproduce, what the built-in
    schemes run under ``use_batch=False``, and the simulator's adapter for
    schemes that have no ``run_epochs`` of their own.
    """
    pairs = []
    for epoch in epochs:
        channel.reset_log()
        outcome = scheme.run_epoch(epoch, channel, readings)
        pairs.append((outcome, channel.reset_log()))
    return pairs


@dataclass
class EpochResult:
    """One epoch's record: estimate, truth, and channel statistics."""

    epoch: int
    estimate: float
    true_value: float
    contributing: int
    contributing_estimate: float
    log: TransmissionLog
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def relative_error(self) -> float:
        """|estimate - truth| / |truth|; against a zero or non-finite truth,
        0 when the estimate equals it, else inf."""
        truth = self.true_value
        if truth == 0 or not math.isfinite(truth):
            return 0.0 if self.estimate == truth else math.inf
        return abs(self.estimate - truth) / abs(truth)


@dataclass
class RunningStats:
    """Streaming accumulation of a run's summary metrics.

    Mirrors :meth:`RunResult.rms_error` and
    :meth:`RunResult.mean_contributing_fraction` term by term, in epoch
    order with the same float operations — so a retention-truncated run
    reports the exact summary numbers the full timeline would.
    """

    num_epochs: int = 0
    error_sq_sum: float = 0.0
    contributing_sum: int = 0

    def add(self, result: "EpochResult") -> None:
        self.num_epochs += 1
        deviation = relative_deviation(result.estimate, result.true_value)
        self.error_sq_sum += deviation * deviation
        self.contributing_sum += result.contributing

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "num_epochs": self.num_epochs,
            "error_sq_sum": self.error_sq_sum,
            "contributing_sum": self.contributing_sum,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "RunningStats":
        return cls(
            num_epochs=int(data["num_epochs"]),
            error_sq_sum=float(data["error_sq_sum"]),
            contributing_sum=int(data["contributing_sum"]),
        )


def _parse_retention(retention: str) -> Tuple[str, Optional[int]]:
    """Validate a retention policy spec: ``all``, ``stream``, ``window:N``.

    Returns ``(kind, window)`` where ``window`` is the retained-epoch cap
    (``None`` for ``all``, 0 for ``stream``).
    """
    if not isinstance(retention, str):
        raise ConfigurationError(
            f"'retention' expects a policy string, got {retention!r} "
            f"({type(retention).__name__})"
        )
    if retention == "all":
        return "all", None
    if retention == "stream":
        return "stream", 0
    if retention.startswith("window:"):
        raw = retention[len("window:"):]
        try:
            window = int(raw)
        except ValueError:
            window = -1
        if window < 1:
            raise ConfigurationError(
                f"'window:N' retention needs a positive epoch count, "
                f"got {retention!r}"
            )
        return "window", window
    raise ConfigurationError(
        f"unknown retention policy {retention!r}; expected 'all', "
        "'stream', or 'window:N'"
    )


class _RetentionBuffer:
    """The run's epoch-result sink, honouring a retention policy.

    List-compatible where the engine needs it (``append`` from the record
    path, ``extend`` from checkpoint restore, iteration from checkpoint
    capture): ``all`` keeps the full timeline, ``window:N`` the last N
    records (drop-oldest), ``stream`` none. Non-``all`` policies
    additionally accumulate :class:`RunningStats` so summary metrics
    survive the truncation.
    """

    def __init__(self, retention: str) -> None:
        kind, window = _parse_retention(retention)
        self.tracked = kind != "all"
        self.stats = RunningStats()
        self._items: "Deque[EpochResult] | List[EpochResult]"
        if kind == "all":
            self._items = []
        else:
            self._items = collections.deque(maxlen=window)

    def append(self, result: "EpochResult") -> None:
        self.stats.add(result)
        self._items.append(result)

    def extend(self, results: Iterable["EpochResult"]) -> None:
        for result in results:
            self.append(result)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def epochs(self) -> List["EpochResult"]:
        return list(self._items)


@dataclass
class RunResult:
    """A full run: per-epoch results plus aggregate accounting.

    Under the default ``all`` retention, ``epochs`` is the complete
    timeline and ``stats`` is ``None`` (byte-identical to the pre-retention
    schema). Under ``window:N``/``stream`` retention, ``epochs`` holds only
    the retained tail and ``stats`` carries the streaming summary over
    *every* measured epoch — the summary metrics below prefer it.
    """

    scheme_name: str
    epochs: List[EpochResult]
    energy: EnergyReport
    stats: Optional[RunningStats] = None

    @property
    def num_epochs(self) -> int:
        """Measured epochs, counting those a retention policy dropped."""
        if self.stats is not None:
            return self.stats.num_epochs
        return len(self.epochs)

    @property
    def estimates(self) -> List[float]:
        return [result.estimate for result in self.epochs]

    @property
    def true_values(self) -> List[float]:
        return [result.true_value for result in self.epochs]

    @property
    def relative_errors(self) -> List[float]:
        return [result.relative_error for result in self.epochs]

    def rms_error(self) -> float:
        """Relative RMS error, the paper's Section 7.3 metric.

        Defined as (1/V) * sqrt(sum_t (V_t - V)^2 / T). The paper's V is a
        single actual value; with time-varying truth we normalise each epoch
        by its own truth, which coincides with the paper's definition when
        the truth is constant.
        """
        if self.stats is not None:
            if not self.stats.num_epochs:
                return 0.0
            return (self.stats.error_sq_sum / self.stats.num_epochs) ** 0.5
        if not self.epochs:
            return 0.0
        total = 0.0
        for result in self.epochs:
            deviation = relative_deviation(result.estimate, result.true_value)
            total += deviation * deviation
        return (total / len(self.epochs)) ** 0.5

    def mean_contributing_fraction(self, num_sensors: int) -> float:
        """Average fraction of sensors accounted for across epochs."""
        if self.stats is not None:
            if not self.stats.num_epochs or num_sensors == 0:
                return 0.0
            return self.stats.contributing_sum / (
                self.stats.num_epochs * num_sensors
            )
        if not self.epochs or num_sensors == 0:
            return 0.0
        total = sum(result.contributing for result in self.epochs)
        return total / (len(self.epochs) * num_sensors)


class EpochSimulator:
    """Drives a scheme over a sequence of epochs, one block at a time.

    One loop serves every scheme: it cuts the run into blocks, hands each
    to ``scheme.run_epochs`` (or :func:`run_epochs_scalar` for schemes
    without one) and audits, records and adapts around it. Which tier runs
    inside the block — fused kernels, object waves, or the scalar oracle of
    a ``use_batch=False`` scheme — is the scheme's business, never the
    simulator's.

    Args:
        deployment: sensor positions.
        failure_model: loss model (may be a :class:`FailureSchedule`).
        scheme: the aggregation scheme under test.
        seed: channel seed; runs with equal seeds see identical loss draws.
        energy_model: converts channel logs to energy figures.
        adapt_interval: call ``scheme.adapt`` every this many epochs (the
            paper adapts every 10 epochs); 0 disables adaptation.
        membership: a :class:`~repro.network.churn.DynamicMembership`
            runtime enabling node churn. Churn events are applied at
            **churn boundaries** — before the epoch at offsets divisible by
            ``churn_interval`` — and blocks split there (events falling
            mid-interval take effect at the next boundary). The scheme must
            implement ``on_membership_change(update)``. ``None`` (the
            default) changes nothing: runs are byte-identical to a
            simulator without the parameter.
        churn_interval: boundary cadence for churn application; ``None``
            follows ``adapt_interval`` (or 10 when adaptation is off, the
            paper's cadence).
        faults: a :class:`~repro.chaos.faults.FaultPlan` injecting
            deterministic faults (delivery kills, payload corruption,
            replays, delayed control billing) through the channel. ``None``
            (the default) attaches nothing: the channel's chaos hooks stay
            unset and runs are byte-identical to a simulator without the
            parameter.
        auditor: a :class:`~repro.chaos.auditor.Auditor` re-checking
            runtime invariants (Property 1/2, billing conservation,
            membership consistency, ...) after every epoch and every
            adaptation/membership event.
        checkpoint: a :class:`~repro.chaos.checkpoint.Checkpointer`
            persisting run state at block boundaries; with ``resume`` set
            it restores a stored checkpoint before the first epoch, and the
            resumed run's :class:`RunResult` is byte-identical to the
            uninterrupted run's.
        on_result: optional observer called with each :class:`EpochResult`
            as it is recorded (measurement epochs only, in epoch order) —
            the aggregation service's streaming tap. Pure observation: it
            runs after the result is appended, cannot influence draws or
            adaptation, and leaves block spans alone. ``None`` changes
            nothing.
        retention: which recorded :class:`EpochResult` objects the run
            keeps in RAM: ``all`` (the default — full timeline, the
            pre-retention behaviour), ``window:N`` (the last N, drop-
            oldest), or ``stream`` (none; pair with ``on_result`` or a
            result store). Non-``all`` policies attach a
            :class:`RunningStats` to the :class:`RunResult` so summary
            metrics cover every measured epoch, dropped or not. Retention
            is bookkeeping only — it never changes a single draw.
    """

    #: Upper bound on one block's epoch span (bounds the delivery-plan
    #: outcome tables when ``adapt_interval`` is 0); block splits never
    #: change results, only when draws happen.
    MAX_BLOCK_EPOCHS = 128

    def __init__(
        self,
        deployment: Deployment,
        failure_model: FailureModel,
        scheme: AggregationScheme,
        seed: int = 0,
        energy_model: Optional[EnergyModel] = None,
        adapt_interval: int = 10,
        membership: Optional[DynamicMembership] = None,
        churn_interval: Optional[int] = None,
        faults=None,
        auditor=None,
        checkpoint=None,
        on_result: Optional[Callable[["EpochResult"], None]] = None,
        retention: str = "all",
    ) -> None:
        _parse_retention(retention)  # validate eagerly
        if adapt_interval < 0:
            raise ConfigurationError("adapt_interval cannot be negative")
        if churn_interval is not None and churn_interval < 1:
            raise ConfigurationError("churn_interval must be at least 1")
        if membership is not None and not callable(
            getattr(scheme, "on_membership_change", None)
        ):
            raise ConfigurationError(
                f"scheme {scheme.name!r} does not implement "
                "on_membership_change and cannot run under node churn"
            )
        self._deployment = deployment
        self._scheme = scheme
        self._channel = Channel(deployment, failure_model, seed=seed)
        self._energy_model = energy_model or EnergyModel()
        self._adapt_interval = adapt_interval
        self._membership = membership
        self._churn_interval = churn_interval
        self._seed = seed
        self._auditor = auditor
        self._checkpoint = checkpoint
        self._on_result = on_result
        self._retention = retention
        self._fingerprint: Optional[Dict[str, object]] = None
        if faults is not None or auditor is not None:
            # Lazy import: repro.chaos.auditor/checkpoint import back into
            # this module's dependents; faults is leaf-safe but keeping all
            # chaos imports run-time makes the layering obvious.
            from repro.chaos.faults import ChaosRuntime

            self._channel.chaos = ChaosRuntime(plan=faults, auditor=auditor)

    @property
    def channel(self) -> Channel:
        """The underlying channel (exposed for load inspection)."""
        return self._channel

    @property
    def scheme(self) -> AggregationScheme:
        """The scheme being driven."""
        return self._scheme

    @property
    def membership(self) -> Optional[DynamicMembership]:
        """The churn runtime, when node churn is enabled."""
        return self._membership

    def _effective_churn_interval(self) -> int:
        """The boundary cadence churn events are applied at."""
        if self._churn_interval is not None:
            return self._churn_interval
        return self._adapt_interval if self._adapt_interval else 10

    def _apply_churn(
        self,
        epoch: int,
        offset: int,
        energy: EnergyReport,
        warmup: int,
        readings: ReadingFn,
    ) -> None:
        """Apply the churn events due at a boundary and notify the scheme.

        Repair control traffic is billed through the channel into its
        per-node maps *and* folded into the run's energy totals (the
        boundary's log holds exactly that traffic — the previous epoch's
        log was already consumed); warm-up boundaries are excluded from the
        totals, mirroring how warm-up epochs' logs are. Workloads carrying
        per-node stream state (sliding windows) may expose an
        ``on_membership_change`` hook of their own: an interrupted stream
        must not leak stale windowed values, so the boundary is forwarded
        to them after the scheme rebuilds.
        """
        chaos = self._channel.chaos
        if chaos is not None:
            # Control billing issued at this boundary is stamped with its
            # epoch, and deferred bills due by now land first — both before
            # the membership step.
            chaos.epoch = epoch
            chaos.flush_control(self._channel, epoch)
        update = self._membership.advance(
            epoch, offset, self._channel, self._energy_model
        )
        if update is None:
            return
        control_log = self._channel.reset_log()
        if self._auditor is not None:
            self._auditor.observe_log(control_log)
        if offset >= warmup:
            energy.add_log(control_log, self._energy_model)
        self._scheme.on_membership_change(update)
        readings_hook = getattr(readings, "on_membership_change", None)
        if callable(readings_hook):
            readings_hook(update)
        if self._auditor is not None:
            self._auditor.check_structure(self._scheme, self._membership, epoch)

    def run(
        self,
        num_epochs: int,
        readings: ReadingFn,
        start_epoch: int = 0,
        warmup: int = 0,
    ) -> RunResult:
        """Run ``num_epochs`` epochs (after ``warmup`` unrecorded ones).

        Warm-up epochs execute fully — including adaptation — but are not
        recorded, mirroring the paper's "we begin data collection only after
        the underlying aggregation topologies become stable".
        """
        if num_epochs < 0:
            raise ConfigurationError("num_epochs cannot be negative")
        results = _RetentionBuffer(self._retention)
        energy = EnergyReport()
        total = warmup + num_epochs
        start_offset = 0
        if self._checkpoint is not None:
            self._fingerprint = {
                "scheme": self._scheme.name,
                "total": total,
                "warmup": warmup,
                "start_epoch": start_epoch,
                "seed": self._seed,
                "adapt_interval": self._adapt_interval,
                "churn_interval": self._churn_interval,
            }
            if self._checkpoint.resume:
                payload = self._checkpoint.load()
                if payload is not None:
                    from repro.chaos.checkpoint import restore_run_state

                    start_offset = restore_run_state(
                        self, payload, results, energy, readings,
                        self._fingerprint,
                    )
        self._run_blocks(
            total, warmup, start_epoch, readings, results, energy, start_offset
        )
        chaos = self._channel.chaos
        if chaos is not None:
            # Bills still deferred past the last boundary must land before
            # per-node words are converted to energy.
            chaos.flush_control(self._channel)
        energy.add_node_words(self._channel.per_node_words(), self._energy_model)
        return RunResult(
            scheme_name=self._scheme.name,
            epochs=results.epochs,
            energy=energy,
            stats=results.stats if results.tracked else None,
        )

    def _run_blocks(
        self,
        total: int,
        warmup: int,
        start_epoch: int,
        readings: ReadingFn,
        results: "_RetentionBuffer",
        energy: EnergyReport,
        start_offset: int,
    ) -> None:
        """The one loop: checkpoint, churn, run a block, audit, record, adapt.

        A block never crosses an adaptation boundary (the plan's lifetime is
        one adaptation interval), a churn boundary (membership changes
        invalidate the plan's edge set) or a checkpoint boundary, and is
        capped at :attr:`MAX_BLOCK_EPOCHS`. Draws are keyed by epoch, so
        where blocks are cut never changes a result — only when draws
        happen.
        """
        interval = self._adapt_interval
        churn_interval = self._effective_churn_interval()
        auditor = self._auditor
        channel = self._channel
        run_epochs = getattr(self._scheme, "run_epochs", None)
        if run_epochs is None:
            run_epochs = functools.partial(run_epochs_scalar, self._scheme)
        offset = start_offset
        while offset < total:
            if self._checkpoint is not None and offset > start_offset:
                self._maybe_checkpoint(offset, results, energy, readings)
            if self._membership is not None and offset % churn_interval == 0:
                self._apply_churn(
                    start_epoch + offset, offset, energy, warmup, readings
                )
            span = min(total - offset, self.MAX_BLOCK_EPOCHS)
            if interval:
                span = min(span, interval - offset % interval)
            if self._membership is not None:
                span = min(span, churn_interval - offset % churn_interval)
            if self._checkpoint is not None:
                span = min(span, self._checkpoint.span_cap(offset))
            epochs = [start_epoch + offset + i for i in range(span)]
            pairs = run_epochs(epochs, channel, readings)
            for i, (outcome, log) in enumerate(pairs):
                if auditor is not None:
                    auditor.observe_log(log)
                    auditor.check_epoch(
                        self._scheme, channel, outcome, log, epochs[i]
                    )
                if offset + i >= warmup:
                    self._record(
                        results, energy, epochs[i], outcome, log, readings
                    )
            if auditor is not None:
                # Fused kernels bill per-node loads block-at-a-time, so
                # conservation holds exactly at block edges only.
                auditor.check_billing(channel, epochs[-1])
            offset += span
            if interval and offset % interval == 0:
                self._scheme.adapt(epochs[-1], pairs[-1][0])
                if auditor is not None:
                    auditor.check_structure(
                        self._scheme, self._membership, epochs[-1]
                    )

    def _maybe_checkpoint(
        self,
        offset: int,
        results: "_RetentionBuffer",
        energy: EnergyReport,
        readings: ReadingFn,
    ) -> None:
        """Write a checkpoint if ``offset`` is a boundary (and maybe die).

        Called before the boundary's churn event, so a resumed run replays
        that churn from the restored membership state — identically, since
        churn events are pure keyed-hash functions of (seed, node, epoch).
        """
        if not self._checkpoint.due(offset):
            return
        from repro.chaos.checkpoint import capture_run_state

        payload = capture_run_state(
            self, offset, results, energy, readings, self._fingerprint
        )
        self._checkpoint.write(payload)
        self._checkpoint.maybe_kill(offset)

    def _record(
        self,
        results: "_RetentionBuffer",
        energy: EnergyReport,
        epoch: int,
        outcome: EpochOutcome,
        log: TransmissionLog,
        readings: ReadingFn,
    ) -> None:
        energy.add_log(log, self._energy_model)
        true_value = self._scheme.exact_answer(epoch, readings)
        extra = dict(outcome.extra)
        if self._membership is not None:
            # Diagnostic only under churn, so churn-disabled runs stay
            # byte-identical to a simulator without the feature.
            extra["alive_sensors"] = self._membership.num_alive_sensors
        aggregate = getattr(self._scheme, "aggregate", None)
        if aggregate is not None:
            # exact_answer just stashed the aggregate's loss-free breakdown
            # (per query, per group); the aggregate says what to record.
            extra.update(aggregate.truth_extras())
        result = EpochResult(
            epoch=epoch,
            estimate=outcome.estimate,
            true_value=true_value,
            contributing=outcome.contributing,
            contributing_estimate=outcome.contributing_estimate,
            log=log,
            extra=extra,
        )
        results.append(result)
        if self._on_result is not None:
            self._on_result(result)
