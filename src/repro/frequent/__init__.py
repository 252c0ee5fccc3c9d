"""Frequent items and quantiles (Section 6): the paper's hardest aggregate.

* :mod:`repro.frequent.summary` — epsilon-deficient summaries + Algorithm 1.
* :mod:`repro.frequent.gradients` — precision gradients: Min Total-load
  (§6.1.2), Min Max-load [13], Hybrid (§6.1.4), and a flat baseline.
* :mod:`repro.frequent.passes` — the tree and Tributary-Delta network
  passes every runner below configures, and their load report.
* :mod:`repro.frequent.tree_fi` — the tree frequent-items engine.
* :mod:`repro.frequent.gk` — mergeable Greenwald-Khanna quantile summaries.
* :mod:`repro.frequent.quantiles_fi` — the Quantiles-based baseline [8].
* :mod:`repro.frequent.tree_quantiles` — precision-gradient quantiles
  (the §6.1.4 extension).
* :mod:`repro.frequent.mp_fi` — the multi-path algorithm (class-indexed
  synopses, Algorithm 2).
* :mod:`repro.frequent.td_fi` — the Tributary-Delta combination (§6.3).
* :mod:`repro.frequent.td_quantiles` — quantiles over multi-path and
  Tributary-Delta topologies (weighted-sample synopsis + conversion).
* :mod:`repro.frequent.reporting` — support thresholding and error metrics.
"""

from repro.frequent.summary import Summary, generate_summary
from repro.frequent.gradients import (
    FlatGradient,
    HybridGradient,
    MinMaxLoadGradient,
    MinTotalLoadGradient,
    PrecisionGradient,
)
from repro.frequent.passes import TreeLoadReport
from repro.frequent.tree_fi import TreeFrequentItems
from repro.frequent.gk import GKSummary
from repro.frequent.quantiles_fi import QuantilesBasedFrequentItems
from repro.frequent.tree_quantiles import TreeQuantiles
from repro.frequent.mp_fi import FrequentItemsSynopsis, MultipathFrequentItems
from repro.frequent.td_fi import TributaryDeltaFrequentItems
from repro.frequent.td_quantiles import (
    QuantileSynopsis,
    TributaryDeltaQuantiles,
)
from repro.frequent.reporting import (
    false_negative_rate,
    false_positive_rate,
    report_frequent,
    true_frequent,
)

__all__ = [
    "Summary",
    "generate_summary",
    "FlatGradient",
    "HybridGradient",
    "MinMaxLoadGradient",
    "MinTotalLoadGradient",
    "PrecisionGradient",
    "TreeFrequentItems",
    "TreeLoadReport",
    "GKSummary",
    "QuantilesBasedFrequentItems",
    "TreeQuantiles",
    "FrequentItemsSynopsis",
    "MultipathFrequentItems",
    "TributaryDeltaFrequentItems",
    "QuantileSynopsis",
    "TributaryDeltaQuantiles",
    "false_negative_rate",
    "false_positive_rate",
    "report_frequent",
    "true_frequent",
]
