"""Frequent-items and quantile summaries as first-class aggregates.

The ``frequent/`` subsystem (Section 6, Figures 8/9) ships its own network
runners; this module wraps its *summaries* behind the standard
:class:`~repro.aggregates.base.Aggregate` protocol so heavy hitters and
quantiles become ordinary query targets — usable from ``SELECT`` one-liners,
:class:`repro.api.RunConfig` strings (``heavy_hitters:0.05``,
``quantiles:0.05:0.9``) and multi-query workloads, over any scheme
(TAG / SD / Tributary-Delta).

* :class:`HeavyHittersAggregate` — tree side: exact item-count maps merged
  pointwise (the epsilon = 0 degenerate of the Section 6.1 summaries);
  multi-path side: the class-indexed duplicate-insensitive synopses of
  Section 6.2 (:class:`~repro.frequent.mp_fi.MultipathFrequentItems`, with
  the cheap FM ⊕ operator the paper's §7.4.3 experiments use); conversion
  builds a class synopsis from the exact counts keyed by the sending T
  vertex. The scalar answer is the *number of phi-heavy items* (count
  > phi * N), the quantity Figure 9's hit/miss metrics are computed from;
  the full item list of the latest evaluation is stashed on
  :attr:`last_items`.
* :class:`QuantilesAggregate` — tree side: mergeable Greenwald-Khanna
  summaries, pruned to the epsilon rank-error budget when they outgrow it
  (§6.1.4's machinery with a flat gradient); multi-path side: the
  duplicate-insensitive weighted bottom-k sample of
  :mod:`repro.frequent.td_quantiles`, with the same GK-to-sample conversion
  function. The scalar answer is the phi-quantile (median by default).

Sensor readings are real-valued; item identity uses ``int(round(value))``
(deterministic, and exact for the integer-valued workloads the frequent
experiments use).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.aggregates.base import Aggregate
from repro.errors import ConfigurationError
from repro._hashing import hash_key
from repro.frequent.gk import GKSummary
from repro.frequent.qdigest import MAX_LOG_UNIVERSE, QDigest
from repro.frequent.mp_fi import (
    CountOperator,
    FMOperator,
    FrequentItemsSynopsis,
    MultipathFrequentItems,
)
from repro.frequent.td_quantiles import (
    QuantileSynopsis,
    convert_summary,
    synopsis_from_readings,
)
from repro.multipath.fm import (
    block_columns,
    block_rows,
    counted_matrix,
    sketches_from_rows,
)

#: Tree partial of the heavy-hitters aggregate: exact item -> count.
ItemCounts = Dict[int, int]

#: Multi-path synopsis of the heavy-hitters aggregate: class -> synopsis.
ClassSynopses = Dict[int, FrequentItemsSynopsis]


def _item(reading: float) -> int:
    """A reading's item identity (deterministic rounding)."""
    return int(round(float(reading)))


class HeavyHittersAggregate(Aggregate[ItemCounts, ClassSynopses]):
    """Phi-heavy hitters over the sensors' current readings.

    Args:
        phi: support threshold — an item is heavy when its count exceeds
            ``phi * N`` (N = total readings).
        epsilon: the summaries' deficiency tolerance; defaults to
            ``phi / 2``, the usual half-support budget.
        total_items_hint: the log N scale of the Section 6.2 drop
            thresholds.
        operator / n_operator: the duplicate-insensitive ⊕ strategies; the
            defaults are the cheap FM operators of [7] (§7.4.3).
    """

    def __init__(
        self,
        phi: float = 0.05,
        epsilon: Optional[float] = None,
        total_items_hint: int = 1024,
        operator: Optional[CountOperator] = None,
        n_operator: Optional[CountOperator] = None,
    ) -> None:
        if not 0.0 < phi < 1.0:
            raise ConfigurationError("phi must be in (0, 1)")
        if epsilon is None:
            epsilon = phi / 2.0
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError("epsilon must be in (0, 1)")
        if epsilon >= phi:
            # The report threshold (phi - epsilon) * N would be <= 0: every
            # item the summaries hold would come back as heavy.
            raise ConfigurationError(
                f"heavy hitters need epsilon < phi; got epsilon={epsilon:g} "
                f"with phi={phi:g}"
            )
        self.phi = phi
        self.epsilon = epsilon
        self._engine = MultipathFrequentItems(
            epsilon,
            total_items_hint,
            operator=operator or FMOperator(),
            n_operator=n_operator or FMOperator(num_bitmaps=16),
        )
        self.name = f"heavy_hitters:{phi:g}"
        #: Sorted heavy items of the most recent evaluation (tree,
        #: synopsis, or mixed), for inspection beyond the scalar count.
        self.last_items: Optional[List[int]] = None

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> ItemCounts:
        return {_item(reading): 1}

    def tree_merge(self, a: ItemCounts, b: ItemCounts) -> ItemCounts:
        merged = dict(a)
        for item, count in b.items():
            merged[item] = merged.get(item, 0) + count
        return merged

    def tree_eval(self, partial: ItemCounts) -> float:
        total = sum(partial.values())
        threshold = self.phi * total
        items = sorted(
            item for item, count in partial.items() if count > threshold
        )
        self.last_items = items
        return float(len(items))

    def tree_words(self, partial: ItemCounts) -> int:
        # (item, count) per entry plus the (n, epsilon) header — the
        # Summary wire format of Section 6.1.1.
        return 2 + 2 * len(partial)

    def tree_empty(self) -> ItemCounts:
        return {}

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(
        self, node: int, epoch: int, reading: float
    ) -> ClassSynopses:
        synopsis = self._engine.generate(node, epoch, [_item(reading)])
        if synopsis is None:
            return {}
        return {synopsis.klass: synopsis}

    def _fm_shapes(self):
        """The bitmap counts of the item and the n operator when both are
        FM — what ``counted_matrix`` builds in bulk — else ``None``: any
        other ⊕ strategy keeps the per-cell block forms."""
        operators = (self._engine.operator, self._engine.n_operator)
        if all(isinstance(operator, FMOperator) for operator in operators):
            return [operator.num_bitmaps for operator in operators]
        return None

    @staticmethod
    def _counted(num_bitmaps, label, counts, *columns):
        """``make(counts[i], *label, columns[0][i], ...)`` of an FM
        operator with ``num_bitmaps`` bitmaps, for every row at once."""
        return sketches_from_rows(
            counted_matrix(num_bitmaps, label, counts, *columns)
        )

    def synopsis_local_block(
        self, nodes, epochs, readings
    ) -> List[List[ClassSynopses]]:
        shapes = self._fm_shapes()
        if shapes is None or len(nodes) == 0:
            return super().synopsis_local_block(nodes, epochs, readings)
        # A lone reading is the class-0 synopsis of one item with count 1
        # (cutoff 0): every item and n sketch of the block in one pass each.
        keys = block_columns(nodes, epochs)
        items = [_item(reading) for reading in readings.ravel().tolist()]
        ones = [1] * len(items)
        item_sketches = self._counted(shapes[0], ("fi",), ones, *keys, items)
        n_sketches = self._counted(shapes[1], ("fi-n",), ones, *keys)
        flat = [
            {0: FrequentItemsSynopsis(klass=0, n_sketch=n, counts={item: sketch})}
            for item, sketch, n in zip(items, item_sketches, n_sketches)
        ]
        return block_rows(flat, len(nodes), len(epochs))

    def synopsis_fuse(self, a: ClassSynopses, b: ClassSynopses) -> ClassSynopses:
        if not a:
            return dict(b)
        if not b:
            return dict(a)
        return self._engine.fuse_into_classes(
            list(a.values()) + list(b.values())
        )

    def synopsis_fuse_many(
        self, synopses: Sequence[ClassSynopses]
    ) -> ClassSynopses:
        return self._engine.fuse_collections(synopses)

    def synopsis_eval(self, synopses: ClassSynopses) -> float:
        items = self._engine.report(synopses, self.phi)
        self.last_items = items
        return float(len(items))

    def synopsis_words(self, synopses: ClassSynopses) -> int:
        return self._engine.collection_words(synopses)

    def synopsis_empty(self) -> ClassSynopses:
        return {}

    # -- conversion --------------------------------------------------------------

    def _conversion_plan(self, partial: ItemCounts):
        """``(n0, class, surviving (item, count) pairs)`` of one conversion,
        ``None`` for an empty partial.

        Mirrors SG over the subtree's whole item multiset: the class is
        ``floor(log2 n0)`` and items below the class's drop threshold never
        travel.
        """
        n0 = sum(partial.values())
        if n0 == 0:
            return None
        klass, cutoff = self._engine.class_rule(n0)
        kept = [pair for pair in sorted(partial.items()) if pair[1] > cutoff]
        return n0, klass, kept

    def convert(
        self, partial: ItemCounts, sender: int, epoch: int
    ) -> ClassSynopses:
        """Exact subtree counts -> one class synopsis keyed by the sender.

        Sketches are keyed ``(sender, epoch, item)``, so the conversion is
        deterministic (the ODI requirement of Section 5).
        """
        plan = self._conversion_plan(partial)
        if plan is None:
            return {}
        n0, klass, kept = plan
        engine = self._engine
        sketches = {
            item: engine.operator.make(count, "fi-conv", sender, epoch, item)
            for item, count in kept
        }
        n_sketch = engine.n_operator.make(n0, "fi-conv-n", sender, epoch)
        return {
            klass: FrequentItemsSynopsis(
                klass=klass, n_sketch=n_sketch, counts=sketches
            )
        }

    def convert_block(self, partials, senders, epochs) -> List[ClassSynopses]:
        shapes = self._fm_shapes()
        if shapes is None:
            return super().convert_block(partials, senders, epochs)
        # One n-pass row per non-empty partial, one item-pass row per
        # surviving (partial, item) pair; consumed back in the same order.
        plans = [self._conversion_plan(partial) for partial in partials]
        rows = [i for i, plan in enumerate(plans) if plan is not None]
        cells = [(i, pair) for i in rows for pair in plans[i][2]]
        n_sketches = iter(
            self._counted(
                shapes[1],
                ("fi-conv-n",),
                [plans[i][0] for i in rows],
                [senders[i] for i in rows],
                [epochs[i] for i in rows],
            )
        )
        item_sketches = iter(
            self._counted(
                shapes[0],
                ("fi-conv",),
                [count for _, (_, count) in cells],
                [senders[i] for i, _ in cells],
                [epochs[i] for i, _ in cells],
                [item for _, (item, _) in cells],
            )
        )
        return [
            {}
            if plan is None
            else {
                plan[1]: FrequentItemsSynopsis(
                    klass=plan[1],
                    n_sketch=next(n_sketches),
                    counts={item: next(item_sketches) for item, _ in plan[2]},
                )
            }
            for plan in plans
        ]

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        counts: Dict[int, int] = {}
        for reading in readings:
            item = _item(reading)
            counts[item] = counts.get(item, 0) + 1
        threshold = self.phi * len(readings)
        return float(
            sum(1 for count in counts.values() if count > threshold)
        )


class _SampleQuantiles(Aggregate):
    """The half both quantile routes share: the multi-path side.

    The delta carries the duplicate-insensitive weighted bottom-k sample of
    :mod:`repro.frequent.td_quantiles`; a subclass supplies the tree
    summary (its ``tree_*`` methods, ``_budget``) and its conversion into a
    sample. The scalar answer is the phi-quantile (median by default).
    """

    def __init__(
        self,
        epsilon: float,
        phi: float,
        sample_size: Optional[int],
        representatives: int,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError("epsilon must be in (0, 1)")
        if not 0.0 <= phi <= 1.0:
            raise ConfigurationError("phi must be in [0, 1]")
        if representatives < 1:
            raise ConfigurationError("representatives must be at least 1")
        self.epsilon = epsilon
        self.phi = phi
        self._capacity = sample_size or max(16, math.ceil(2.0 / epsilon))
        if self._capacity < 1:
            raise ConfigurationError("sample_size must be at least 1")
        self._representatives = representatives

    # -- tree ------------------------------------------------------------

    def tree_eval(self, partial) -> float:
        if partial.n == 0:
            return 0.0
        return partial.query_quantile(self.phi)

    def tree_words(self, partial) -> int:
        return partial.words()

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(self, node: int, epoch: int, reading: float) -> QuantileSynopsis:
        return synopsis_from_readings(node, epoch, [float(reading)], self._capacity)

    def synopsis_fuse(
        self, a: QuantileSynopsis, b: QuantileSynopsis
    ) -> QuantileSynopsis:
        return a.merge(b)

    def synopsis_eval(self, synopsis: QuantileSynopsis) -> float:
        if not synopsis.entries:
            return 0.0
        return synopsis.quantile(self.phi)

    def synopsis_words(self, synopsis: QuantileSynopsis) -> int:
        return synopsis.words()

    def synopsis_empty(self) -> QuantileSynopsis:
        return QuantileSynopsis.empty(self._capacity)

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        if not readings:
            return 0.0
        ordered = sorted(float(value) for value in readings)
        rank = max(1, round(self.phi * len(ordered)))
        return ordered[rank - 1]


class QuantilesAggregate(_SampleQuantiles):
    """The phi-quantile of the sensors' current readings.

    Args:
        epsilon: rank-error tolerance; sets the GK prune budget
            (~1/epsilon entries) and the sample capacity (~2/epsilon).
        phi: the reported quantile (0.5 = median).
        sample_size: bottom-k capacity of the multi-path sample; defaults
            from epsilon.
        representatives: stratified representatives per converted GK
            summary (the Section 6.3 conversion).
    """

    def __init__(
        self,
        epsilon: float = 0.05,
        phi: float = 0.5,
        sample_size: Optional[int] = None,
        representatives: int = 16,
    ) -> None:
        super().__init__(epsilon, phi, sample_size, representatives)
        self._budget = max(2, math.ceil(1.0 / epsilon))
        self.name = f"quantiles:{epsilon:g}:{phi:g}"

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> GKSummary:
        return GKSummary.from_values([float(reading)])

    def tree_merge(self, a: GKSummary, b: GKSummary) -> GKSummary:
        merged = a.merge(b)
        # Prune only once the summary outgrows the epsilon budget; small
        # (sub-budget) summaries stay exact, so low fan-in trees answer
        # exactly — the §6.1.4 behaviour with a flat gradient.
        if merged.size > 2 * self._budget + 1:
            merged = merged.prune(self._budget)
        return merged

    def tree_empty(self) -> GKSummary:
        return GKSummary.from_values([])

    # -- conversion --------------------------------------------------------------

    def convert(self, partial: GKSummary, sender: int, epoch: int) -> QuantileSynopsis:
        converted = convert_summary(
            partial, sender, epoch, self._capacity, self._representatives
        )
        if converted is None:
            return QuantileSynopsis.empty(self._capacity)
        return converted


class QuantilesQDAggregate(_SampleQuantiles):
    """The phi-quantile via q-digest summaries (Shrivastava et al.).

    The duplicate-sensitive sibling of :class:`QuantilesAggregate`: tree
    partials are q-digests over the integer universe
    ``[0, 2**log_universe)`` with compression budget
    ``k = ceil(log_universe / epsilon)``, giving the SenSys'04 space bound
    (at most ~3k counted ranges) and rank error at most ``epsilon * n``.
    The multi-path side is the shared duplicate-insensitive weighted
    sample (q-digests are not ODI — range counts double under multi-path
    duplication — so the delta side needs the sample either way);
    conversion draws stratified representatives from the digest, keyed in
    a dedicated ``qdq-conv`` namespace.

    Args:
        epsilon: rank-error tolerance; sets the q-digest budget and the
            sample capacity.
        phi: the reported quantile (0.5 = median).
        log_universe: universe exponent — readings are rounded and clamped
            into ``[0, 2**log_universe)``.
        sample_size: bottom-k capacity of the multi-path sample; defaults
            from epsilon.
        representatives: stratified representatives per converted digest.
    """

    def __init__(
        self,
        epsilon: float = 0.05,
        phi: float = 0.5,
        log_universe: int = 10,
        sample_size: Optional[int] = None,
        representatives: int = 16,
    ) -> None:
        super().__init__(epsilon, phi, sample_size, representatives)
        if not 1 <= log_universe <= MAX_LOG_UNIVERSE:
            raise ConfigurationError(
                f"log_universe must be in [1, {MAX_LOG_UNIVERSE}]"
            )
        self.log_universe = log_universe
        self._budget = max(4, math.ceil(log_universe / epsilon))
        self.name = f"quantiles_qd:{epsilon:g}:{phi:g}"

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading: float) -> QDigest:
        return QDigest.from_values([float(reading)], self.log_universe, self._budget)

    def tree_merge(self, a: QDigest, b: QDigest) -> QDigest:
        return a.merge(b)

    def tree_empty(self) -> QDigest:
        return QDigest.empty(self.log_universe, self._budget)

    # -- conversion --------------------------------------------------------------

    def convert(self, partial: QDigest, sender: int, epoch: int) -> QuantileSynopsis:
        """Digest -> weighted sample: r stratified representatives.

        Mirrors the GK conversion of Section 6.3: representative j carries
        the ``(j + 0.5) / r`` quantile with weight ``n / r``, keyed
        deterministically by ``(sender, epoch, j)`` so duplicated
        conversions fuse idempotently (the ODI requirement).
        """
        n = partial.n
        if n == 0:
            return QuantileSynopsis.empty(self._capacity)
        r = min(self._representatives, n)
        weight = n / r
        keyed_values = [
            (
                hash_key("qdq-conv", sender, epoch, j),
                partial.query_quantile((j + 0.5) / r),
                weight,
            )
            for j in range(r)
        ]
        return QuantileSynopsis.from_weighted_values(
            self._capacity, keyed_values
        )


__all__ = [
    "HeavyHittersAggregate",
    "QuantilesAggregate",
    "QuantilesQDAggregate",
]
