"""Table 1's latency column, quantified (plus footnote 6).

The paper reports latency qualitatively — "minimal" for all three
approaches on simple aggregates — and argues in footnote 6 that for
frequent items, two tree retransmissions cost *more* latency than the
multi-path algorithm's three-message payloads. This experiment puts
numbers on both claims over the rings schedule of the ``table1`` config's
deployment.

Reproduction targets: identical Count latency across TAG/SD/TD (one
message, one attempt, shared schedule); for frequent items, the
retransmitting tree strictly slower than the 3x-payload multi-path; the
footnote's per-transmission overhead ratio > 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.api import EXPERIMENT_CONFIGS, build_scenario
from repro.network.latency import (
    LatencyModel,
    compare_retransmission_strategies,
    latency_table,
)
from repro.plotting import format_table


@dataclass
class LatencyResult:
    """Per-approach latency figures plus the footnote 6 comparison."""

    table: Dict[str, float] = field(default_factory=dict)
    retransmit_ms: float = 0.0
    longer_message_ms: float = 0.0
    depth: int = 0
    num_sensors: int = 0

    @property
    def overhead(self) -> float:
        return self.retransmit_ms / self.longer_message_ms

    def render(self) -> str:
        rows = [
            [name, f"{value / 1000.0:.1f}"] for name, value in self.table.items()
        ]
        body = format_table(["approach", "latency (s, relative)"], rows)
        footnote = (
            f"footnote 6 (per transmission): 2 retransmissions = "
            f"{self.retransmit_ms:.0f} ms vs one 3x message = "
            f"{self.longer_message_ms:.0f} ms "
            f"(overhead {self.overhead:.2f}x)"
        )
        context = (
            f"{self.num_sensors} sensors, ring depth {self.depth}; "
            "latency = sum over rings of serialised per-level transmissions"
        )
        return "\n".join([context, body, footnote])


def run_latency(quick: bool = False, seed: int = 0) -> LatencyResult:
    """Quantify Table 1's latency column on the Synthetic deployment."""
    topology = build_scenario(
        EXPERIMENT_CONFIGS["table1"].replace(
            scenario_seed=seed, **(dict(num_sensors=150) if quick else {})
        )
    ).topology
    model = LatencyModel()
    comparison = compare_retransmission_strategies(model)
    return LatencyResult(
        table=latency_table(topology.rings, model),
        retransmit_ms=comparison.retransmit_ms,
        longer_message_ms=comparison.longer_message_ms,
        depth=topology.rings.depth,
        num_sensors=topology.deployment.num_sensors,
    )
