"""Arithmetic shared by the experiment modules.

The paper's error metrics are the engine's own: the per-epoch relative
error is :attr:`~repro.network.simulator.EpochResult.relative_error` and
the Section 7.3 RMS error :meth:`~repro.network.simulator.RunResult.rms_error`.
Frequent-items experiments report false-negative and false-positive
percentages (Section 7.4.3).
"""

from __future__ import annotations

from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percent(value: float) -> float:
    """Scale a fraction to a percentage."""
    return 100.0 * value
