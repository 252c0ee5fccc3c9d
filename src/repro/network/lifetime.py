"""Network lifetime: turning energy accounting into battery predictions.

The paper's opening premise: "A paramount concern in these sensor networks
is to conserve the limited battery power, as it is usually impractical to
install new batteries in a deployed sensor network." The message/word
accounting in :mod:`repro.network.energy` measures the *rate* of spend;
this module turns rates into **lifetimes** — the quantity a deployment
actually plans around:

* :class:`~repro.network.energy.MoteEnergyModel` — the full duty-cycle
  bill: transmission plus reception, idle listening during the node's
  receive windows, and the (orders-of-magnitude smaller [1, 18]) CPU cost.
* :class:`LifetimeReport` — epochs until the first mote dies, until any
  fraction of the network dies, and the spend-ranked hotspot list (in tree
  aggregation these are the nodes with big subtrees; rotating or
  multi-pathing them is exactly what robustness buys).
* :func:`lifetime_from_run` — one call from a simulator
  :class:`~repro.network.simulator.RunResult` to a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.network.energy import MoteEnergyModel
from repro.network.placement import NodeId
from repro.network.simulator import RunResult


@dataclass
class LifetimeReport:
    """Battery-lifetime predictions for one deployment + workload."""

    #: node -> predicted epochs until its battery is exhausted.
    epochs_by_node: Dict[NodeId, float]
    battery_uj: float

    @property
    def first_death_epochs(self) -> float:
        """Epochs until the first mote dies (the usual lifetime metric)."""
        return min(self.epochs_by_node.values(), default=math.inf)

    @property
    def last_death_epochs(self) -> float:
        """Epochs until the final mote dies."""
        return max(self.epochs_by_node.values(), default=math.inf)

    def epochs_to_fraction_dead(self, fraction: float) -> float:
        """Epochs until ``fraction`` of the motes are exhausted."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fraction must be in (0, 1]")
        deaths = sorted(self.epochs_by_node.values())
        index = max(0, math.ceil(fraction * len(deaths)) - 1)
        return deaths[index]

    def alive_fraction(self, epoch: float) -> float:
        """Fraction of motes still alive at ``epoch``."""
        if not self.epochs_by_node:
            return 0.0
        alive = sum(1 for death in self.epochs_by_node.values() if death > epoch)
        return alive / len(self.epochs_by_node)

    def hotspots(self, count: int = 5) -> List[Tuple[NodeId, float]]:
        """The ``count`` shortest-lived motes, sorted soonest-death first."""
        ranked = sorted(self.epochs_by_node.items(), key=lambda item: item[1])
        return ranked[:count]

    def render(self) -> str:
        lines = [
            f"battery: {self.battery_uj / 1e6:.1f} J per mote",
            f"first death: {self.first_death_epochs:,.0f} epochs",
            f"half dead:   {self.epochs_to_fraction_dead(0.5):,.0f} epochs",
            f"last death:  {self.last_death_epochs:,.0f} epochs",
            "hotspots (node: epochs):",
        ]
        for node, epochs in self.hotspots():
            lines.append(f"  {node}: {epochs:,.0f}")
        return "\n".join(lines)


def predict_lifetimes(
    per_node_uj_per_epoch: Dict[NodeId, float],
    battery_j: float = 20.0,
) -> LifetimeReport:
    """Lifetimes from per-epoch spend rates.

    Args:
        per_node_uj_per_epoch: each mote's average microjoules per epoch.
        battery_j: usable battery capacity in joules (2 AA cells at
            realistic DC-DC efficiency are in the low tens of kJ; the small
            default keeps example numbers readable — only ratios between
            schemes matter, as with every energy figure here).
    """
    if battery_j <= 0:
        raise ConfigurationError("battery capacity must be positive")
    battery_uj = battery_j * 1e6
    epochs_by_node: Dict[NodeId, float] = {}
    for node, rate in per_node_uj_per_epoch.items():
        if rate < 0:
            raise ConfigurationError(f"node {node} has negative energy rate")
        epochs_by_node[node] = battery_uj / rate if rate > 0 else math.inf
    return LifetimeReport(epochs_by_node=epochs_by_node, battery_uj=battery_uj)


def lifetime_from_run(
    run: RunResult,
    epochs: int,
    mote_model: Optional[MoteEnergyModel] = None,
    battery_j: float = 20.0,
    received_messages_per_epoch: float = 2.0,
) -> LifetimeReport:
    """Predict lifetimes from a simulator run.

    The run's per-node transmission energy is averaged over ``epochs`` and
    topped up with the duty-cycle costs (listening, receiving, CPU) that the
    channel log cannot see.

    Args:
        run: a :class:`RunResult` from the simulator.
        epochs: how many epochs the run's accounting covers.
        mote_model: duty-cycle bill; defaults to :class:`MoteEnergyModel()`.
        battery_j: usable battery capacity in joules.
        received_messages_per_epoch: mean messages a mote receives per
            epoch (tree nodes hear their children; ring nodes several
            downstream neighbours).
    """
    if epochs <= 0:
        raise ConfigurationError("epochs must be positive")
    model = mote_model or MoteEnergyModel()
    overhead = (
        received_messages_per_epoch * model.receive_per_message_uj
        + model.listen_per_epoch_uj
        + model.cpu_per_epoch_uj
    )
    rates = {
        node: uj / epochs + overhead
        for node, uj in run.energy.per_node_uj.items()
    }
    return predict_lifetimes(rates, battery_j=battery_j)
