"""Metric definitions shared by the experiment modules.

The paper's error metric (Section 7.3) is the relative root-mean-square
error: (1/V) * sqrt(sum_t (V_t - V)^2 / T). For time-varying truth we
normalise per epoch, which reduces to the paper's definition when the truth
is constant. Frequent-items experiments report false-negative and
false-positive percentages (Section 7.4.3).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigurationError


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def relative_error(estimate: float, truth: float) -> float:
    """|estimate - truth| / |truth| (inf when truth is 0 and estimate isn't)."""
    if truth == 0:
        return 0.0 if estimate == 0 else math.inf
    return abs(estimate - truth) / abs(truth)


def rms_error_series(
    estimates: Sequence[float], truths: Sequence[float]
) -> float:
    """Relative RMS error over paired (estimate, truth) series."""
    if len(estimates) != len(truths):
        raise ConfigurationError("series lengths differ")
    if not estimates:
        return 0.0
    total = 0.0
    counted = 0
    for estimate, truth in zip(estimates, truths):
        if truth == 0:
            continue
        deviation = (estimate - truth) / truth
        total += deviation * deviation
        counted += 1
    if counted == 0:
        return 0.0
    return math.sqrt(total / counted)


def percent(value: float) -> float:
    """Scale a fraction to a percentage."""
    return 100.0 * value
