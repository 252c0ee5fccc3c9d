"""Support thresholding and report-quality metrics for frequent items.

Following the paper (and [13, 14]): given support s and tolerance eps
(s >> eps), report every item whose eps-deficient estimate exceeds
(s - eps) * N. With exact communication this yields **no false negatives**
and only false positives of true frequency at least (s - eps) * N; message
loss introduces false negatives through undercounting (Figure 9).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Set

from repro.errors import ConfigurationError
from repro.frequent.summary import Item, Summary


def true_frequent(counts: Mapping[Item, int], support: float) -> Set[Item]:
    """Ground truth: items with frequency >= support * N."""
    if not 0.0 < support <= 1.0:
        raise ConfigurationError("support must be in (0, 1]")
    total = sum(counts.values())
    threshold = support * total
    return {item for item, count in counts.items() if count >= threshold}


def report_frequent(summary: Summary, support: float, epsilon: float) -> List[Item]:
    """The paper's report rule over a tree summary: estimate > (s - eps) * N."""
    if not 0.0 < support <= 1.0:
        raise ConfigurationError("support must be in (0, 1]")
    if epsilon >= support:
        raise ConfigurationError("epsilon must be smaller than the support")
    threshold = (support - epsilon) * summary.n
    return summary.items_over(threshold)


def report_from_estimates(
    estimates: Mapping[Item, float],
    total: float,
    support: float,
    epsilon: float,
) -> List[Item]:
    """The same rule over generic (item -> estimate) maps (multi-path, TD)."""
    threshold = (support - epsilon) * total
    return sorted(item for item, value in estimates.items() if value > threshold)


def false_negative_rate(truth: Set[Item], reported: Iterable[Item]) -> float:
    """Fraction of truly frequent items that went unreported."""
    if not truth:
        return 0.0
    reported_set = set(reported)
    return len(truth - reported_set) / len(truth)


def false_positive_rate(truth: Set[Item], reported: Iterable[Item]) -> float:
    """Fraction of reported items that are not truly frequent."""
    reported_set = set(reported)
    if not reported_set:
        return 0.0
    return len(reported_set - truth) / len(reported_set)
