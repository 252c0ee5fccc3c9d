"""Tributary-Delta core: the paper's primary contribution.

* :mod:`repro.core.modes` — the T/M vertex labels.
* :mod:`repro.core.graph` — the labelled aggregation topology, correctness
  properties, and switchability (Section 3).
* :mod:`repro.core.payloads` — the wire payloads schemes exchange.
* :mod:`repro.core.wave` — the one aggregation wave over a T/M layout.
* :mod:`repro.core.tag_scheme` — tree aggregation (TAG baseline).
* :mod:`repro.core.sd_scheme` — synopsis diffusion over rings (SD baseline).
* :mod:`repro.core.td_scheme` — the combined Tributary-Delta scheme.
* :mod:`repro.core.adaptation` — TD-Coarse and TD adaptation (Section 4).
"""

from repro.core.modes import Mode
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.adaptation import (
    AdaptationAction,
    DampedPolicy,
    TDCoarsePolicy,
    TDFinePolicy,
)
from repro.core.tag_scheme import TagScheme
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.core.validation import (
    LabelledTopology,
    audit,
    is_edge_correct,
    is_path_correct,
    topology_of_td_graph,
)

__all__ = [
    "Mode",
    "TDGraph",
    "initial_modes_by_level",
    "AdaptationAction",
    "DampedPolicy",
    "TDCoarsePolicy",
    "TDFinePolicy",
    "TagScheme",
    "SynopsisDiffusionScheme",
    "TributaryDeltaScheme",
    "LabelledTopology",
    "audit",
    "is_edge_correct",
    "is_path_correct",
    "topology_of_td_graph",
]
