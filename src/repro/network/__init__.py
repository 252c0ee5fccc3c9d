"""Sensor-network substrate: placements, radios, lossy channels, rings.

This package replaces the TAG simulator used in the paper's evaluation
(Section 7.1). It provides:

* :mod:`repro.network.placement` — node deployments (grids, lab layouts).
* :mod:`repro.network.radio` — connectivity and link-quality models.
* :mod:`repro.network.failures` — Global/Regional/scheduled loss models.
* :mod:`repro.network.links` — the per-epoch lossy channel.
* :mod:`repro.network.rings` — rings (level) topology construction.
* :mod:`repro.network.messages` — TinyDB-style message sizing, RLE model.
* :mod:`repro.network.energy` — message/word energy accounting.
* :mod:`repro.network.latency` — epoch-schedule latency model (footnote 6).
* :mod:`repro.network.lifetime` — battery-lifetime prediction.
* :mod:`repro.network.churn` — node churn models and dynamic membership.
* :mod:`repro.network.packed` — ``build_packed_topology``, the registered
  topology builders under the name the end-to-end benchmark wraps.
* :mod:`repro.network.simulator` — the epoch-driven execution engine.
"""

from repro.network.placement import Deployment, grid_random_placement
from repro.network.radio import Connectivity, DiscRadio, QualityDiscRadio
from repro.network.churn import (
    ChurnBatch,
    ChurnContext,
    DynamicMembership,
    LifetimeChurn,
    MembershipUpdate,
    RandomDeaths,
    RegionalBlackout,
    ScheduledChurn,
)
from repro.network.failures import (
    FailureSchedule,
    GlobalLoss,
    LinkLossTable,
    NoLoss,
    RegionalLoss,
)
from repro.network.lifetime import (
    LifetimeReport,
    lifetime_from_run,
    predict_lifetimes,
)
from repro.network.latency import (
    LatencyModel,
    compare_retransmission_strategies,
    latency_table,
    scheme_latency_ms,
)
from repro.network.links import Channel, TransmissionLog
from repro.network.rings import RingsTopology
from repro.network.messages import MessageAccountant, MessageSpec, TINYDB_MESSAGE_BYTES
from repro.network.energy import EnergyModel, EnergyReport, MoteEnergyModel
from repro.network.simulator import EpochResult, EpochSimulator, RunResult

__all__ = [
    "Deployment",
    "grid_random_placement",
    "Connectivity",
    "DiscRadio",
    "QualityDiscRadio",
    "ChurnBatch",
    "ChurnContext",
    "DynamicMembership",
    "LifetimeChurn",
    "MembershipUpdate",
    "RandomDeaths",
    "RegionalBlackout",
    "ScheduledChurn",
    "FailureSchedule",
    "GlobalLoss",
    "LinkLossTable",
    "NoLoss",
    "RegionalLoss",
    "LifetimeReport",
    "MoteEnergyModel",
    "lifetime_from_run",
    "predict_lifetimes",
    "LatencyModel",
    "compare_retransmission_strategies",
    "latency_table",
    "scheme_latency_ms",
    "Channel",
    "TransmissionLog",
    "RingsTopology",
    "MessageAccountant",
    "MessageSpec",
    "TINYDB_MESSAGE_BYTES",
    "EnergyModel",
    "EnergyReport",
    "EpochResult",
    "EpochSimulator",
    "RunResult",
]
