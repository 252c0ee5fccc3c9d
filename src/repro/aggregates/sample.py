"""Uniform sample: one synopsis, two uses (Section 5).

The bottom-k priority sample is simultaneously a valid tree partial and a
valid multi-path synopsis: each reading receives a deterministic uniform
priority keyed by (node, epoch), and a sample keeps the ``k`` entries with
the smallest priorities. Merging two samples — whether disjoint (tree) or
overlapping (multi-path) — is "union, keep k smallest", which is ODI, so the
conversion function is the identity.

Because the k survivors of distinct priorities are a uniform random subset of
the contributing readings, the paper's derived aggregates (quantiles and
statistical moments) follow directly; :func:`quantile_from_sample` implements
the quantile readout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro._hashing import hash_unit
from repro.aggregates.base import Aggregate
from repro.errors import ConfigurationError

#: A sample entry: (priority, node, value).
Entry = Tuple[float, int, float]


@dataclass(frozen=True)
class UniformSample:
    """An immutable bottom-k priority sample."""

    capacity: int
    entries: Tuple[Entry, ...]

    def values(self) -> List[float]:
        """The sampled readings (order: by priority)."""
        return [value for _, _, value in self.entries]

    def merge(self, other: "UniformSample") -> "UniformSample":
        """Union the entry sets and keep the ``capacity`` smallest priorities."""
        capacity = min(self.capacity, other.capacity)
        combined = sorted(set(self.entries) | set(other.entries))
        return UniformSample(capacity=capacity, entries=tuple(combined[:capacity]))


class UniformSampleAggregate(Aggregate[UniformSample, UniformSample]):
    """Uniform sample of size ``k`` over contributing readings.

    ``tree_eval``/``synopsis_eval`` return the sample mean by default (a
    scalar is needed for the scheme interfaces); use the sample itself via
    the payloads for quantiles or moments.
    """

    name = "sample"

    def __init__(self, k: int = 32) -> None:
        if k < 1:
            raise ConfigurationError("sample size k must be at least 1")
        self._k = k

    def _single(self, node: int, epoch: int, reading: float) -> UniformSample:
        priority = hash_unit("sample", node, epoch)
        return UniformSample(
            capacity=self._k, entries=((priority, node, float(reading)),)
        )

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> UniformSample:
        return self._single(node, epoch, reading)

    def tree_merge(self, a: UniformSample, b: UniformSample) -> UniformSample:
        return a.merge(b)

    def tree_eval(self, partial: UniformSample) -> float:
        values = partial.values()
        return sum(values) / len(values) if values else 0.0

    def tree_words(self, partial: UniformSample) -> int:
        return 2 * len(partial.entries)

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float) -> UniformSample:
        return self._single(node, epoch, reading)

    def synopsis_fuse(self, a: UniformSample, b: UniformSample) -> UniformSample:
        return a.merge(b)

    def synopsis_eval(self, synopsis: UniformSample) -> float:
        return self.tree_eval(synopsis)

    def synopsis_words(self, synopsis: UniformSample) -> int:
        return 2 * len(synopsis.entries)

    # -- neutral elements ----------------------------------------------------

    def tree_empty(self) -> UniformSample:
        return UniformSample(capacity=self._k, entries=())

    def synopsis_empty(self) -> UniformSample:
        return UniformSample(capacity=self._k, entries=())

    # -- conversion --------------------------------------------------------------

    def convert(self, partial: UniformSample, sender: int, epoch: int) -> UniformSample:
        return partial

    def mixed_eval(
        self, partials: Sequence[UniformSample], fused: UniformSample | None
    ) -> float:
        merged = fused
        for partial in partials:
            merged = partial if merged is None else merged.merge(partial)
        return self.tree_eval(merged) if merged is not None else 0.0

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        if not readings:
            return 0.0
        return float(sum(readings)) / len(readings)


def quantile_from_sample(sample: UniformSample, phi: float) -> float:
    """Estimate the phi-quantile (0 <= phi <= 1) from a uniform sample."""
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError("phi must be in [0, 1]")
    values = sorted(sample.values())
    if not values:
        raise ConfigurationError("cannot take a quantile of an empty sample")
    index = min(len(values) - 1, int(phi * len(values)))
    return values[index]


def moment_from_sample(sample: UniformSample, order: int) -> float:
    """Estimate the order-th raw statistical moment from a uniform sample.

    Section 5: "the Uniform sample algorithm can be used to compute various
    other aggregates (e.g., Quantiles, Statistical moments)". The sample
    mean of x^order is an unbiased estimator of E[x^order] over the
    contributing readings.
    """
    if order < 1:
        raise ConfigurationError("moment order must be at least 1")
    values = sample.values()
    if not values:
        raise ConfigurationError("cannot take a moment of an empty sample")
    return sum(value**order for value in values) / len(values)

