"""A process-pool map with deterministic result ordering.

Every multi-run surface in the repository is embarrassingly parallel: one
:class:`repro.api.RunConfig` fully determines one simulator run (channel
draws are keyed hashes), so grid cells couple only through their configs,
never through shared state. :meth:`repro.api.Session.run_many` and the
design-knob sweeps of :mod:`repro.experiments.sweeps` fan out through
:func:`parallel_map`; serial, pooled and cached executions of the same grid
return identical results (``tests/test_parallel.py``).
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
U = TypeVar("U")


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
        # Attribute access, not a top-level ``from`` import: the stdlib
        # loads its multiprocessing stack on first use, so serial callers
        # (the default everywhere) never pay for it.
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
    except (OSError, PermissionError):  # pragma: no cover - platform specific
        return [fn(item) for item in items]
    # Only pool *creation* falls back; worker exceptions propagate so a
    # failing item cannot silently discard the rest of the pool's work.
    with pool:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
