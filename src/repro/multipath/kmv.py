"""K-minimum-values sketches: the accuracy-preserving ⊕ operator.

Definition 1 of the paper asks for a duplicate-insensitive sum operator such
that X(εc,δc) ⊕ Y(εc,δc) = (X+Y)(εc,δc), citing Bar-Yossef et al. [3]. The
KMV (bottom-k) distinct-count sketch has exactly this behaviour when sums are
represented as distinct-counts of *virtual items*:

* a count c at node X becomes the c virtual items (X, u, 0..c-1);
* ⊕ is sketch union — keep the k smallest hashes of the union. Union is
  commutative/associative/idempotent, hence duplicate-insensitive;
* with fewer than k distinct hashes the sketch is *exact*; beyond that the
  estimate (k-1) * M / h_(k) has relative error ~1/sqrt(k), so choosing
  k = ceil(2/εc² · ln(2/δc)) delivers an (εc, δc)-estimate — and the union
  of two (εc, δc)-sketches is an (εc, δc)-sketch of the summed value, which
  is the accuracy-preserving property.

Hashes are uniform 64-bit values from :mod:`repro._hashing`, so everything is
deterministic and collision-free with overwhelming probability.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro._hashing import hash_key, stream_rng
from repro.errors import ConfigurationError, SketchError

#: Hash space size: hashes are uniform in [0, _SPACE).
_SPACE = float(1 << 64)

#: Above this count, ``insert_count`` switches to order-statistics sampling.
_EXACT_INSERT_LIMIT = 2048


def k_for_relative_error(epsilon_c: float, delta_c: float = 0.05) -> int:
    """Sketch size k achieving relative error ``epsilon_c`` w.p. 1 - ``delta_c``."""
    if not 0.0 < epsilon_c < 1.0:
        raise ConfigurationError("epsilon_c must be in (0, 1)")
    if not 0.0 < delta_c < 1.0:
        raise ConfigurationError("delta_c must be in (0, 1)")
    return max(4, math.ceil(2.0 / (epsilon_c**2) * math.log(2.0 / delta_c)))


class KMVSketch:
    """A bottom-k distinct-count sketch over virtual items."""

    __slots__ = ("k", "_values", "_saturated")

    def __init__(self, k: int = 32, values: Optional[Sequence[int]] = None) -> None:
        if k < 2:
            raise ConfigurationError("k must be at least 2")
        self.k = k
        self._values: List[int] = sorted(set(values or ()))[: k]
        # Saturated = we may have discarded hashes above the k-th smallest,
        # so len(_values) is no longer the exact distinct count.
        self._saturated = len(self._values) >= k

    # -- insertion ---------------------------------------------------------

    def _add_hash(self, value: int) -> None:
        values = self._values
        if len(values) >= self.k:
            if value >= values[-1]:
                self._saturated = True
                return
        # Sorted insert; sketches stay tiny (k is tens), so linear is fine.
        low, high = 0, len(values)
        while low < high:
            mid = (low + high) // 2
            if values[mid] < value:
                low = mid + 1
            else:
                high = mid
        if low < len(values) and values[low] == value:
            return
        values.insert(low, value)
        if len(values) > self.k:
            values.pop()
            self._saturated = True

    def insert(self, *key: object) -> None:
        """Insert one virtual item identified by ``key``."""
        self._add_hash(hash_key("kmv", *key))

    def insert_count(self, count: int, *key: object) -> None:
        """Insert ``count`` distinct virtual items derived from ``key``.

        Small counts hash each virtual item exactly. Large counts generate
        the k smallest order statistics of ``count`` uniforms directly with
        the stick-breaking recurrence, seeded by the key — deterministic, so
        the same (key, count) always contributes the same hash set and the
        sketch stays duplicate-insensitive.
        """
        if count < 0:
            raise SketchError("cannot insert a negative count")
        if count == 0:
            return
        if count <= _EXACT_INSERT_LIMIT:
            for j in range(count):
                self.insert(*key, j)
            return
        rng = stream_rng("kmv-bulk", self.k, *key)
        position = 0.0
        remaining = count
        for _ in range(min(self.k, count)):
            if remaining <= 0:
                break
            draw = rng.random()
            position += (1.0 - position) * (1.0 - (1.0 - draw) ** (1.0 / remaining))
            remaining -= 1
            self._add_hash(int(position * _SPACE))
        # Only the k smallest of the count virtual hashes were materialised;
        # the sketch therefore no longer stores every distinct item.
        if count > self.k:
            self._saturated = True

    # -- fusion ----------------------------------------------------------------

    def fuse(self, other: "KMVSketch") -> "KMVSketch":
        """Union of two sketches: the ⊕ operator.

        Fusing sketches of different k is permitted (the result uses the
        smaller k), which lets callers trade accuracy for size mid-stream.
        """
        k = min(self.k, other.k)
        merged = sorted(set(self._values) | set(other._values))
        fused = KMVSketch(k=k, values=merged[:k])
        fused._saturated = (
            self._saturated or other._saturated or len(merged) > k
        )
        return fused

    def __or__(self, other: "KMVSketch") -> "KMVSketch":
        return self.fuse(other)

    def copy(self) -> "KMVSketch":
        """An independent copy of this sketch."""
        duplicate = KMVSketch(k=self.k, values=list(self._values))
        duplicate._saturated = self._saturated
        return duplicate

    # -- evaluation ----------------------------------------------------------

    def estimate(self) -> float:
        """Distinct-count estimate: exact until saturation, then (k-1)M/h_k."""
        if not self._saturated:
            return float(len(self._values))
        kth = self._values[self.k - 1]
        if kth == 0:
            return float(len(self._values))
        return (self.k - 1) * _SPACE / kth

    def is_empty(self) -> bool:
        """True when nothing was inserted."""
        return not self._values

    @property
    def is_exact(self) -> bool:
        """Whether the estimate is still an exact distinct count."""
        return not self._saturated

    # -- sizing ----------------------------------------------------------------

    def words(self) -> int:
        """Transmission size: two words per stored 64-bit hash, plus k."""
        return 1 + 2 * len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KMVSketch):
            return NotImplemented
        return (
            self.k == other.k
            and self._values == other._values
            and self._saturated == other._saturated
        )

    def __repr__(self) -> str:
        return f"KMVSketch(k={self.k}, estimate={self.estimate():.1f})"
