"""The parallel sweep engine: fan independent runs across a process pool.

Every multi-scheme figure in the paper is embarrassingly parallel: a
(scheme, seed, failure-model) triple fully determines one simulator run,
and the paired-comparison methodology (identical channel seeds across
schemes) couples runs only through their *specs*, never through shared
state. This module exploits that:

* :class:`SweepSpec` — a frozen, JSON-able description of one run; a thin
  alias over :class:`repro.api.RunConfig`. :meth:`SweepSpec.digest` hashes
  the canonical ``RunConfig.to_json()`` payload, which keys the result
  cache.
* :func:`run_spec` — executes one spec (scenario assembly, TD convergence,
  measurement) via :func:`repro.api.run_config_result` and returns the
  :class:`~repro.network.simulator.RunResult`. Module-level so process
  pools can pickle it.
* :class:`SweepRunner` — maps specs to results through a
  ``concurrent.futures`` process pool with **deterministic result
  ordering** (results come back in spec order regardless of completion
  order) and an on-disk JSON cache: re-running a swept grid reloads
  byte-identical results instead of recomputing.
* :func:`parallel_map` — the generic deterministic-order pool map the
  design-knob sweeps in :mod:`repro.experiments.sweeps` use.

Determinism: a run's result depends only on its spec (the channel draws
are keyed hashes), so serial, pooled, and cached executions of the same
grid return identical estimates — asserted by ``tests/test_parallel.py``.
"""

from __future__ import annotations

import os
import pathlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.api import (
    RUN_CACHE_VERSION,
    RunConfig,
    config_digest,
    run_config_result,
)
from repro.experiments.metrics import format_table
from repro.network.simulator import RunResult
from repro.registry import SCHEMES, build_failure_model, build_reading

T = TypeVar("T")
U = TypeVar("U")

#: The run-result cache version (see :data:`repro.api.RUN_CACHE_VERSION`);
#: cache keys are derived from the canonical ``RunConfig.to_json()``.
CACHE_VERSION = RUN_CACHE_VERSION

#: Snapshot of the built-in scheme names (the sweepable set at import
#: time); validation resolves the *live* registry, so schemes registered
#: later are sweepable too.
KNOWN_SCHEMES = SCHEMES.available()


# -- spec -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One independent simulator run, fully described by plain values.

    A thin alias over :class:`repro.api.RunConfig`: the spec keeps the
    sweep engine's historical field set, :meth:`to_run_config` maps it onto
    the unified schema, and both execution (:func:`run_spec`) and the cache
    key (:meth:`digest`) are delegated to the config form.

    Attributes:
        scheme: a registered scheme name (``TAG``, ``SD``, ``TD-Coarse``,
            ``TD`` built in).
        seed: channel seed of the measurement run (specs sharing a seed are
            paired: identical loss draws).
        failure: failure-model spec string — ``none``, ``global:P``,
            ``regional:P1:P2``, ...
        num_sensors: deployment size (the paper's Synthetic is 600).
        epochs: measured epochs.
        scenario_seed: seed of the deployment/tree construction.
        aggregate: a registered aggregate name (``count``, ``sum``, ...).
        reading: workload spec string — ``constant:V``,
            ``uniform:LO:HI:SEED``, ...
        converge_epochs: stabilisation epochs for the adaptive schemes.
        threshold: contributing-percentage target driving adaptation.
        churn: churn-model spec string (``none`` = static membership).
    """

    scheme: str
    seed: int
    failure: str
    num_sensors: int = 600
    epochs: int = 100
    scenario_seed: int = 0
    aggregate: str = "count"
    reading: str = "constant:1.0"
    converge_epochs: int = 120
    threshold: float = 0.9
    churn: str = "none"

    def __post_init__(self) -> None:
        # Validation is RunConfig's: one schema, one set of error messages.
        self.to_run_config()

    def to_run_config(self) -> RunConfig:
        """The unified config this spec denotes (measurement defaults)."""
        return RunConfig(
            scheme=self.scheme,
            seed=self.seed,
            failure=self.failure,
            num_sensors=self.num_sensors,
            scenario_seed=self.scenario_seed,
            aggregate=self.aggregate,
            reading=self.reading,
            epochs=self.epochs,
            converge_epochs=self.converge_epochs,
            threshold=self.threshold,
            churn=self.churn,
        )

    def digest(self) -> str:
        """The cache key: hashed canonical ``RunConfig.to_json()`` payload."""
        return config_digest(self.to_run_config())


def failure_model(spec: str):
    """Parse a failure spec string through the failure-model registry."""
    return build_failure_model(spec)


def reading_fn(spec: str):
    """Parse a workload spec string through the dataset registry."""
    return build_reading(spec)


def run_spec(spec: SweepSpec) -> RunResult:
    """Execute one spec: the paper's per-run methodology, self-contained.

    Delegates to :func:`repro.api.run_config_result` — scenario assembly,
    TD convergence (only the scheme named; a worker should not pay for the
    others), then measurement with the channel-seed offset — so sweep
    cells and ``Session.run`` are the same code path by construction.
    """
    return run_config_result(spec.to_run_config())


# -- generic deterministic pool map ---------------------------------------


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    jobs: Optional[int] = None,
) -> List[U]:
    """Map ``fn`` over ``items`` with deterministic result ordering.

    ``jobs`` <= 1 (or a single item) runs serially, as does a single-CPU
    host — pool workers there only time-slice one core, so the fork and
    pickle overhead is pure regression (``benchmarks/bench_engine.py``
    measured pooled sweeps at 0.95x on a 1-CPU container). Otherwise the items are
    dispatched to a ``ProcessPoolExecutor`` and the results are collected in
    submission order, so callers observe exactly the serial semantics. If
    the platform cannot spawn a pool (restricted sandboxes), the map
    silently falls back to serial execution.
    """
    if (
        jobs is None
        or jobs <= 1
        or len(items) <= 1
        or (os.cpu_count() or 1) <= 1
    ):
        return [fn(item) for item in items]
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except (OSError, PermissionError):  # pragma: no cover - platform specific
        return [fn(item) for item in items]
    # Only pool *creation* falls back; worker exceptions propagate so a
    # failing item cannot silently discard the rest of the pool's work.
    with pool:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]


# -- the sweep runner ------------------------------------------------------


@dataclass
class SweepRunner:
    """Runs spec grids through a process pool with an on-disk result cache.

    A thin adapter over :meth:`repro.api.Session.run_many` — pool
    dispatch, deterministic ordering and the ``config_digest``-keyed JSON
    cache are the Session's, so sweeps and ``Session.run`` share one cache
    and one execution path.

    Attributes:
        jobs: worker processes; ``None`` or <= 1 runs serially.
        cache_dir: directory for JSON result files (one per config digest);
            ``None`` disables caching.
    """

    jobs: Optional[int] = None
    cache_dir: Optional[pathlib.Path] = None

    def run(self, specs: Sequence[SweepSpec]) -> List[RunResult]:
        """Execute ``specs``; results align index-for-index with the input.

        Cached specs are loaded without touching the pool; only misses are
        dispatched. Fresh results are written back to the cache before
        returning.
        """
        from repro.api import Session

        session = Session(jobs=self.jobs, cache_dir=self.cache_dir)
        return session.run_many([spec.to_run_config() for spec in specs])

    def run_grid(
        self,
        schemes: Sequence[str],
        seeds: Sequence[int],
        failures: Sequence[str],
        **fixed: object,
    ) -> "SweepReport":
        """Run the cross product schemes x failures x seeds as one sweep.

        Grid order is deterministic: failures outermost, then schemes, then
        seeds — the order the report tabulates.
        """
        specs = [
            SweepSpec(scheme=scheme, seed=seed, failure=failure, **fixed)  # type: ignore[arg-type]
            for failure in failures
            for scheme in schemes
            for seed in seeds
        ]
        return SweepReport(specs=specs, results=self.run(specs))


@dataclass
class SweepReport:
    """Specs and results of one sweep, with a renderable summary table."""

    specs: List[SweepSpec]
    results: List[RunResult]

    def rows(self) -> List[Tuple[SweepSpec, RunResult]]:
        return list(zip(self.specs, self.results))

    def rms_by_scheme(self) -> Dict[str, List[float]]:
        """Scheme -> RMS errors in spec order (seeds/failures interleaved)."""
        series: Dict[str, List[float]] = {}
        for spec, result in self.rows():
            series.setdefault(spec.scheme, []).append(result.rms_error())
        return series

    def render(self) -> str:
        headers = [
            "failure",
            "scheme",
            "seed",
            "rms_error",
            "mean_contributing",
            "words/epoch",
        ]
        table_rows = []
        for spec, result in self.rows():
            fraction = result.mean_contributing_fraction(spec.num_sensors)
            words = (
                result.energy.total_words / len(result.epochs)
                if result.epochs
                else 0.0
            )
            table_rows.append(
                [
                    spec.failure,
                    spec.scheme,
                    str(spec.seed),
                    f"{result.rms_error():.4f}",
                    f"{fraction:.3f}",
                    f"{words:.0f}",
                ]
            )
        return format_table(headers, table_rows)
