"""The long-running aggregation engine: one scenario, a changing portfolio.

One :class:`AggregationService` owns one scenario (topology, tree, loss
model, reading source — built exactly as ``run_config_result`` builds
them) and drives it **forever** in adaptation-interval blocks, folding
queries in and out of the live workload at block boundaries:

* ``subscribe`` — admission-checks the submission (word budget), plans it
  into refcounted slots (subexpression sharing), and queues the new slots
  for the next boundary. The first admission lazily builds the scheme and
  runs the paper's convergence phase; later admissions join the already-
  stable topology — the delta region "does not rely on the specifics of
  any one query", so no re-convergence is needed.
* ``run_block`` — applies pending portfolio changes, then runs one block
  through the same :class:`~repro.network.simulator.EpochSimulator` a
  one-shot run uses. Per-epoch results stream to subscribers through the
  simulator's ``on_result`` tap. Because delivery draws are keyed hashes
  of ``(seed, sender, receiver, epoch, attempt)`` and block sizes align
  with the adaptation interval, block-by-block driving is byte-identical
  to one continuous run — and portfolio changes at boundaries leave the
  surviving queries' per-epoch results byte-identical to a workload that
  never contained the departed query (pinned by
  ``tests/test_dynamic_workload.py``).
* ``shutdown`` — drains the in-flight block, closes every stream, and
  writes a final checkpoint through the chaos subsystem's
  :class:`~repro.chaos.checkpoint.Checkpointer`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.api import RunConfig, build_scenario, config_digest
from repro.errors import ConfigurationError
from repro.network.energy import EnergyModel, EnergyReport
from repro.service.admission import AdmissionController
from repro.service.planner import QueryPlanner
from repro.service.streams import (
    CLOSE_COMPLETE,
    CLOSE_SHUTDOWN,
    EpochRecord,
    QueryAnswer,
    QuerySubmit,
    Subscriber,
)

#: Config fields a POSTed run-config may differ in without changing the
#: scenario: they describe the *subscription*, not the world.
_SUBSCRIPTION_FIELDS = ("queries", "aggregate", "query", "epochs", "warmup")


class ScenarioMismatch(ConfigurationError):
    """A POSTed run-config describes a different world (HTTP 409)."""


def scenario_fingerprint(config: RunConfig) -> Dict[str, object]:
    """A config's scenario identity: everything but its queries/limits."""
    data = config.to_jsonable()
    for key in _SUBSCRIPTION_FIELDS + ("type", "version"):
        data.pop(key, None)
    return data


class AggregationService:
    """The continuously running query engine behind the HTTP server.

    Args:
        config: the scenario to serve (scheme, topology, failure, seed,
            reading stream, convergence). Its ``queries``/``aggregate``/
            ``epochs`` fields are ignored — queries arrive over HTTP and
            the run never ends on its own.
        budget_words: the admission controller's per-message word budget.
        block_epochs: epochs per execution block; adaptive schemes require
            a multiple of ``config.adapt_interval`` (default: exactly one
            adaptation interval), which is what keeps block-by-block
            driving byte-identical to a continuous run.
        checkpoint_dir: when set, graceful shutdown writes a final
            checkpoint (``checkpoint.json``) here.
        pace_seconds: optional sleep between blocks — a real deployment
            paces epochs at sensor cadence; tests leave it 0.
        resume: reload the shutdown checkpoint from ``checkpoint_dir``
            (epoch cursor, epoch/word counters, energy ledger) and
            continue the stream from where the previous service stopped.
            A missing checkpoint is a fresh start; a checkpoint written
            by a different config is a loud
            :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        config: RunConfig,
        budget_words: int = 256,
        block_epochs: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        pace_seconds: float = 0.0,
        resume: bool = False,
    ) -> None:
        if config.churn != "none":
            raise ConfigurationError(
                "the aggregation service does not serve churn scenarios "
                "yet; use repro run-config for churn timelines"
            )
        self._config = config
        self._scenario = build_scenario(config)
        interval = (
            config.adapt_interval if self._scenario.entry.adaptive else 0
        )
        if block_epochs is None:
            block_epochs = interval if interval else 10
        if block_epochs < 1:
            raise ConfigurationError("block_epochs must be at least 1")
        if interval and block_epochs % interval:
            raise ConfigurationError(
                f"block_epochs ({block_epochs}) must be a multiple of the "
                f"adaptation interval ({interval}): blocks must end on "
                "adaptation boundaries to match a continuous run"
            )
        if interval and config.warmup % interval:
            raise ConfigurationError(
                f"warmup ({config.warmup}) must be a multiple of the "
                f"adaptation interval ({interval}) under an adaptive scheme"
            )
        self._block_epochs = block_epochs
        self._checkpoint_dir = checkpoint_dir
        self._pace = pace_seconds
        deployment = self._scenario.topology.deployment
        self._planner = QueryPlanner(
            self._scenario.source, deployment=deployment
        )
        self._admission = AdmissionController(
            self._scenario.source,
            budget_words=budget_words,
            start_epoch=config.start_epoch,
            deployment=deployment,
        )

        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

        # Live execution state (None until the first admission).
        self._workload = None
        self._readings = None
        self._sim = None
        self._cursor = config.start_epoch
        self._warmup_done = False

        # Subscriptions.
        self._next_id = 1
        self._pending: List[Subscriber] = []
        self._active: Dict[int, Subscriber] = {}
        self._released: set = set()

        # Per-block dispatch snapshot (engine thread only).
        self._block_subs: List[Subscriber] = []
        self._block_names: tuple = ()

        # Counters.
        self._blocks_run = 0
        self._epochs_run = 0
        self._total_words = 0
        self._records_dropped = 0
        self._energy = EnergyReport()
        self._energy_model = EnergyModel()

        self._resumed_from: Optional[int] = None
        if resume:
            self._resume_from_checkpoint()

        # Epoch-result spill (the scale tier's pluggable stores). A
        # resumed service appends after the records the previous service
        # already spilled instead of truncating them.
        self._store_writer = None
        if config.storage is not None:
            from repro.storage import open_writer

            self._store_writer = open_writer(
                config.storage,
                config_digest(config),
                append=self._resumed_from is not None,
            )

    def _resume_from_checkpoint(self) -> None:
        """Reload cursor/counters/energy from the shutdown checkpoint.

        Only the *impure* stream position is restored: the scheme and its
        convergence are rebuilt at the first admission exactly as a fresh
        service builds them (the delta region does not rely on any one
        query, so a rebuilt portfolio is a legal continuation).
        """
        if self._checkpoint_dir is None:
            raise ConfigurationError(
                "resume needs a checkpoint directory to reload from"
            )
        from repro import serialization
        from repro.chaos.checkpoint import Checkpointer

        payload = Checkpointer(
            self._checkpoint_dir, interval=1, resume=True
        ).load()
        if payload is None:
            return  # nothing written yet: a fresh start
        fingerprint = payload.get("fingerprint") or {}
        digest = config_digest(self._config)
        if fingerprint.get("service") != digest:
            raise ConfigurationError(
                "checkpoint in "
                f"{self._checkpoint_dir!r} was written by a different "
                f"service config ({fingerprint.get('service')!r} != "
                f"{digest!r})"
            )
        self._cursor = int(fingerprint["cursor"])
        self._epochs_run = int(fingerprint.get("epochs_run", 0))
        self._total_words = int(fingerprint.get("total_words", 0))
        self._records_dropped = int(fingerprint.get("records_dropped", 0))
        self._energy = serialization.from_jsonable(payload["energy"])
        self._warmup_done = self._cursor > self._config.start_epoch
        self._resumed_from = self._cursor

    # -- subscriptions -----------------------------------------------------

    @property
    def config(self) -> RunConfig:
        """The served scenario (immutable for the server's lifetime)."""
        return self._config

    @property
    def block_epochs(self) -> int:
        """Epochs per block: the admission/eviction granularity."""
        return self._block_epochs

    @property
    def planner(self) -> QueryPlanner:
        return self._planner

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    def check_scenario(self, config: RunConfig) -> None:
        """Reject configs describing a different world than this server's."""
        mine = scenario_fingerprint(self._config)
        theirs = scenario_fingerprint(config)
        if mine != theirs:
            differing = sorted(
                key
                for key in set(mine) | set(theirs)
                if mine.get(key) != theirs.get(key)
            )
            raise ScenarioMismatch(
                "submitted config describes a different scenario than this "
                "server's (differs in: " + ", ".join(differing) + "); only "
                "its queries may differ"
            )

    def subscribe(
        self, submit: QuerySubmit, config: Optional[RunConfig] = None
    ) -> Subscriber:
        """Admit a submission; its queries join at the next boundary.

        Raises :class:`~repro.service.admission.AdmissionError` over
        budget, :class:`ScenarioMismatch` for foreign configs, and plain
        :class:`~repro.errors.ConfigurationError` when shutting down.
        """
        with self._lock:
            if self._stopping:
                raise ConfigurationError("service is shutting down")
            if config is not None:
                self.check_scenario(config)
            planned = self._planner.plan(submit.queries)
            new_parts = self._planner.new_parts(planned)
            words = {
                part.render(): self._admission.estimate_words(part)
                for part in new_parts
            }
            verdict = self._admission.admit(
                sum(words.values()), self._planner.active_words()
            )
            self._planner.acquire(planned, words)
            subscriber = Subscriber(self._next_id, planned, submit.epochs)
            subscriber.verdict = verdict
            self._next_id += 1
            self._pending.append(subscriber)
            self._wake.notify_all()
            return subscriber

    def release(self, subscriber: Subscriber, reason: str = "closed") -> None:
        """Drop a subscription (disconnect, limit, shutdown) — idempotent.

        Slot references drop immediately; the workload sheds unreferenced
        slots at the next block boundary.
        """
        with self._lock:
            if subscriber.id in self._released:
                return
            self._released.add(subscriber.id)
            self._records_dropped += subscriber.dropped
            self._planner.release(subscriber.planned)
            self._active.pop(subscriber.id, None)
            if subscriber in self._pending:
                self._pending.remove(subscriber)
            subscriber.close(reason)
            self._wake.notify_all()

    # -- execution ---------------------------------------------------------

    def _apply_boundary(self) -> None:
        """Fold pending portfolio changes into the live workload (locked)."""
        for subscriber in self._pending:
            self._active[subscriber.id] = subscriber
        self._pending.clear()
        if self._workload is None:
            if not any(
                slot.refs > 0 for slot in self._planner._slots.values()
            ):
                return
            self._workload, self._readings = self._planner.build_workload()
            scheme = self._scenario.build_scheme(self._workload)
            self._scenario.converge(scheme, self._readings)
            self._sim = self._scenario.build_simulator(
                scheme, on_result=self._dispatch
            )
        else:
            self._planner.apply(self._workload, self._readings)

    def run_block(self) -> int:
        """Run one execution block; returns the number of epochs run.

        0 means the portfolio is empty (nothing to do). Safe to call from
        tests directly; the background loop is just this in a loop.
        """
        with self._lock:
            self._apply_boundary()
            if self._workload is None or not self._workload.workload_names:
                return 0
            warm = 0 if self._warmup_done else self._config.warmup
            self._block_subs = [
                sub for sub in self._active.values() if not sub.closed
            ]
            self._block_names = tuple(self._workload.workload_names)
            sim, readings = self._sim, self._readings
            cursor, span = self._cursor, self._block_epochs
        # The block itself runs outside the lock: subscribe/release only
        # append pending work, and the workload is mutated exclusively at
        # boundaries by this thread.
        sim.run(span, readings, start_epoch=cursor, warmup=warm)
        with self._lock:
            self._warmup_done = True
            self._cursor += warm + span
            self._blocks_run += 1
            self._epochs_run += span
        return span

    def _dispatch(self, result) -> None:
        """Per-epoch streaming tap (called by the simulator mid-block)."""
        estimates = result.extra.get("workload_estimates")
        truths = result.extra.get("workload_truths")
        if estimates is None or truths is None:
            return
        est_by_key = dict(zip(self._block_names, map(float, estimates)))
        truth_by_key = dict(zip(self._block_names, map(float, truths)))
        words = result.log.words_sent
        self._total_words += words
        self._energy.add_log(result.log, self._energy_model)
        if self._store_writer is not None:
            self._store_writer.append(result)
        for subscriber in self._block_subs:
            if subscriber.closed:
                continue
            answers = {
                pq.name: QueryAnswer(
                    estimate=pq.answer(est_by_key),
                    truth=pq.answer(truth_by_key),
                )
                for pq in subscriber.planned
            }
            subscriber.push(
                EpochRecord(
                    epoch=result.epoch, results=answers, words=words
                )
            )
            if subscriber.done:
                subscriber.close(CLOSE_COMPLETE)
                self.release(subscriber, CLOSE_COMPLETE)

    def _loop(self) -> None:
        while True:
            with self._wake:
                while not self._stopping and not self._has_work():
                    self._wake.wait(timeout=0.2)
                if self._stopping:
                    return
            self.run_block()
            if self._pace:
                time.sleep(self._pace)

    def _has_work(self) -> bool:
        """Locked predicate: anything to fold in or subscribers to serve."""
        if self._pending:
            return True
        return any(not sub.closed for sub in self._active.values())

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the background block loop (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._loop, name="repro-aggregation", daemon=True
            )
            self._thread.start()

    def shutdown(self, timeout: float = 60.0) -> Optional[str]:
        """Drain the in-flight block, close streams, checkpoint.

        Returns the checkpoint path when one was written.
        """
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        with self._lock:
            for subscriber in list(self._active.values()) + self._pending:
                subscriber.close(CLOSE_SHUTDOWN)
            self._active.clear()
            self._pending.clear()
            checkpoint = self._write_checkpoint()
            if self._store_writer is not None:
                self._store_writer.close()
                self._store_writer = None
            return checkpoint

    def _write_checkpoint(self) -> Optional[str]:
        if self._checkpoint_dir is None or self._sim is None:
            return None
        from repro.chaos.checkpoint import Checkpointer, capture_run_state

        checkpointer = Checkpointer(self._checkpoint_dir, interval=1)
        fingerprint = {
            "service": config_digest(self._config),
            "cursor": self._cursor,
            "epochs_run": self._epochs_run,
            "total_words": self._total_words,
            "records_dropped": self._records_dropped,
            "workload": list(self._block_names),
        }
        payload = capture_run_state(
            self._sim, self._cursor - self._config.start_epoch, [],
            self._energy, self._readings, fingerprint,
        )
        checkpointer.write(payload)
        return checkpointer.path

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            # Dropped records: the settled count from released
            # subscriptions plus whatever the live ones have shed so far.
            dropped = self._records_dropped + sum(
                sub.dropped
                for sub in list(self._active.values()) + self._pending
            )
            stats: Dict[str, object] = {
                "engine": {
                    "cursor": self._cursor,
                    "block_epochs": self._block_epochs,
                    "blocks_run": self._blocks_run,
                    "epochs_run": self._epochs_run,
                    "total_words": self._total_words,
                    "records_dropped": dropped,
                    "resumed_from": self._resumed_from,
                    "converged": self._sim is not None,
                    "subscribers": len(self._active) + len(self._pending),
                    "workload": (
                        list(self._workload.workload_names)
                        if self._workload is not None
                        else []
                    ),
                },
                "admission": self._admission.stats(),
                "planner": self._planner.stats(),
            }
            if self._config.storage is not None:
                stats["storage"] = {
                    "spec": self._config.storage,
                    "records": (
                        self._store_writer.records
                        if self._store_writer is not None
                        else 0
                    ),
                }
            return stats


__all__ = ["AggregationService", "ScenarioMismatch", "scenario_fingerprint"]
