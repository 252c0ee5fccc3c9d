"""Mergeable Greenwald-Khanna-style quantile summaries.

The quantiles substrate for the paper's [8] baseline and for the §6.1.4
precision-gradient quantiles extension. A summary stores entries
``(value, rmin, rmax)`` — each kept value with lower/upper bounds on its
rank — and supports the three classic operations:

* ``from_values`` — an exact summary of a local collection;
* ``merge`` — combine two summaries over disjoint multisets; rank bounds
  interleave and the absolute rank error adds (eps_A*n_A + eps_B*n_B);
* ``prune(B)`` — keep ~B+1 entries at evenly spaced target ranks, adding
  n/(2B) absolute rank error.

The standard accuracy argument: a summary answers any rank query within its
absolute error ``rank_error``; after a tree of merges and prunes the total
error is the sum of granted prune slacks, which both quantile algorithms
budget against their epsilon.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.errors import ConfigurationError

#: One kept value with rank bounds: (value, rmin, rmax), ranks 1-based.
Entry = Tuple[float, int, int]


@dataclass(frozen=True)
class GKSummary:
    """An epsilon-approximate quantile summary with explicit rank bounds."""

    n: int
    entries: Tuple[Entry, ...]
    rank_error: float  # absolute rank slack this summary guarantees

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "GKSummary":
        """An exact summary: every value kept, ranks known precisely."""
        ordered = sorted(values)
        entries = tuple(
            (value, index + 1, index + 1) for index, value in enumerate(ordered)
        )
        return cls(n=len(ordered), entries=entries, rank_error=0.0)

    @property
    def size(self) -> int:
        """Number of stored entries."""
        return len(self.entries)

    def words(self) -> int:
        """Transmission size: value + rmin + rmax per entry, plus a header."""
        return 2 + 3 * len(self.entries)

    # -- queries ---------------------------------------------------------

    def _middles(self) -> List[float]:
        """Midpoints of rank bounds; non-decreasing because entries are
        value-sorted and rank bounds grow with value."""
        return [(rmin + rmax) / 2.0 for _, rmin, rmax in self.entries]

    def query_rank(self, rank: int) -> float:
        """The value whose rank bounds best bracket ``rank``."""
        if not self.entries:
            raise ConfigurationError("cannot query an empty summary")
        target = max(1, min(self.n, rank))
        return self._entry_covering(target)[0]

    def query_quantile(self, phi: float) -> float:
        """The phi-quantile (phi in [0, 1])."""
        if not 0.0 <= phi <= 1.0:
            raise ConfigurationError("phi must be in [0, 1]")
        return self.query_rank(max(1, round(phi * self.n)))

    def rank_bounds(self, value: float) -> Tuple[int, int]:
        """Bounds on the rank of ``value`` (number of elements <= value)."""
        low = 0
        high = self.n
        for entry_value, rmin, rmax in self.entries:
            if entry_value <= value:
                low = max(low, rmin)
            if entry_value > value:
                high = min(high, rmax - 1)
                break
        return low, high

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "GKSummary") -> "GKSummary":
        """Combine two summaries over disjoint inputs (errors add)."""
        if not self.entries:
            return other
        if not other.entries:
            return self
        merged: List[Entry] = []
        values_a = [entry[0] for entry in self.entries]
        values_b = [entry[0] for entry in other.entries]
        for source, values_other, summary_other in (
            (self.entries, values_b, other),
            (other.entries, values_a, self),
        ):
            for value, rmin, rmax in source:
                index = bisect.bisect_right(values_other, value)
                if index > 0:
                    rmin_extra = summary_other.entries[index - 1][1]
                else:
                    rmin_extra = 0
                if index < len(summary_other.entries):
                    rmax_extra = summary_other.entries[index][2] - 1
                else:
                    rmax_extra = summary_other.n
                merged.append((value, rmin + rmin_extra, rmax + rmax_extra))
        merged.sort()
        return GKSummary(
            n=self.n + other.n,
            entries=tuple(merged),
            rank_error=self.rank_error + other.rank_error,
        )

    # -- prune -----------------------------------------------------------------

    def prune(self, budget: int) -> "GKSummary":
        """Keep ~``budget``+1 entries, adding n/(2*budget) rank error."""
        if budget < 1:
            raise ConfigurationError("prune budget must be at least 1")
        if len(self.entries) <= budget + 1:
            return self
        middles = self._middles()
        kept: List[Entry] = []
        seen = set()
        for step in range(budget + 1):
            target = 1 + round(step * (self.n - 1) / budget)
            entry = self._entry_covering(target, middles)
            if entry not in seen:
                seen.add(entry)
                kept.append(entry)
        kept.sort()
        return GKSummary(
            n=self.n,
            entries=tuple(kept),
            rank_error=self.rank_error + self.n / (2.0 * budget),
        )

    def _entry_covering(self, rank: int, middles: List[float] | None = None) -> Entry:
        if middles is None:
            middles = self._middles()
        index = bisect.bisect_left(middles, rank)
        best = None
        best_gap = None
        for candidate in (index - 1, index):
            if 0 <= candidate < len(self.entries):
                gap = abs(middles[candidate] - rank)
                if best_gap is None or gap < best_gap:
                    best_gap = gap
                    best = self.entries[candidate]
        assert best is not None
        return best

    # -- frequency readout (for the Quantiles-based FI baseline) ---------------

    def frequency_estimate(self, value: float) -> float:
        """Estimated multiplicity of ``value``: rank(value) - rank(value-).

        Error is at most twice the summary's rank error.
        """
        _, upper = self.rank_bounds(value)
        lower_low, _ = self.rank_bounds(value - 0.5)
        return max(0.0, float(upper - lower_low))

    def candidate_values(self) -> List[float]:
        """Distinct values stored (the only candidates for frequent items)."""
        return sorted({entry[0] for entry in self.entries})
