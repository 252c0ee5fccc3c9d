"""SD: synopsis diffusion over the rings topology (the multi-path baseline).

SD is the all-M layout of the one wave (:mod:`repro.core.wave`): each epoch,
ring i+1 transmits while ring i listens; a node fuses every synopsis it
heard with its own SG output and broadcasts the fusion once. Every upstream
ring neighbour that hears the broadcast incorporates it, so a reading is
lost only if *all* its paths to the base station fail — the robustness that
Figure 2 shows, at the cost of the synopsis approximation error (~12% for
40-bitmap FM sketches).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.aggregates.base import Aggregate
from repro.core.wave import (
    LayoutWave,
    WaveLayout,
    empty_outcome,
    outcome_extra,
    ring_schedule,
)
from repro.errors import ConfigurationError
from repro.kernels.td import run_td_block as run_sd_block
from repro.network.links import Channel, TransmissionLog
from repro.network.placement import BASE_STATION, Deployment
from repro.network.rings import RingsTopology
from repro.network.simulator import EpochOutcome, ReadingFn, exact_over


class SynopsisDiffusionScheme(LayoutWave):
    """Multi-path aggregation over rings."""

    def __init__(
        self,
        deployment: Deployment,
        rings: RingsTopology,
        aggregate: Aggregate,
        attempts: int = 1,
        name: str = "SD",
        use_batch: bool = True,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        super().__init__(deployment, aggregate, use_batch, name)
        self._attempts = attempts
        self._rings = rings
        self._rebuild_schedule()

    def _rebuild_schedule(self) -> None:
        """Recompute the all-M layout from the rings (static between
        membership changes)."""
        level_nodes, audiences = ring_schedule(self._rings)
        self._layout = WaveLayout.build(
            level_nodes,
            audiences.keys() | {BASE_STATION},
            {},
            audiences,
            multipath_attempts=self._attempts,
        )

    def on_membership_change(self, update) -> None:
        """Re-ring after node churn: adopt the recomputed BFS levels.

        Synopsis diffusion has no tree to repair — its robustness *is* the
        ring redundancy — so churn handling is exactly the paper's ring
        construction re-run over the survivors, plus a new ground-truth
        population.
        """
        self._rings = update.rings
        self._rebuild_schedule()
        self._alive_sensors = update.alive_sensors()

    @property
    def rings(self) -> RingsTopology:
        return self._rings

    @property
    def latency_epochs(self) -> int:
        """Latency proxy: number of ring levels."""
        return self._rings.depth

    def _wave_layout(self) -> WaveLayout:
        return self._layout

    def run_epoch(
        self, epoch: int, channel: Channel, readings: ReadingFn
    ) -> EpochOutcome:
        """The scalar reference wave: one node, one draw at a time."""
        return self._run_wave(self._layout, epoch, channel, readings, None, None)

    def run_epochs(
        self, epochs: Sequence[int], channel: Channel, readings: ReadingFn
    ) -> List[Tuple[EpochOutcome, TransmissionLog]]:
        """A block of epochs; see :meth:`LayoutWave._run_blocks`."""
        return self._run_blocks(epochs, channel, readings, run_sd_block)

    def _evaluate_base_station(
        self,
        epoch,
        chaos,
        partials,
        exact_count,
        synopsis,
        count_sketch,
        contributing,
        missing_stats,
    ) -> EpochOutcome:
        """The base station's fused synopsis, its contributing count audited."""
        aggregate = self._aggregate
        extra = {"latency_epochs": self._rings.depth}
        if synopsis is None:
            return empty_outcome(aggregate, extra)
        if (
            chaos is not None
            and chaos.auditor is not None
            and count_sketch is not None
        ):
            # SD's contributing-count sketch is a pure OR-fold of per-node
            # single-item insertions, so the base station can audit it for
            # invented bits (corrupted synopsis rows) exactly.
            chaos.auditor.check_contrib_sketch(
                count_sketch, self._alive_sensors, epoch
            )
        if count_sketch is not None:
            contributing_estimate = count_sketch.estimate()
        else:
            contributing_estimate = aggregate.synopsis_eval(synopsis)
        return EpochOutcome(
            estimate=aggregate.synopsis_eval(synopsis),
            contributing=contributing,
            contributing_estimate=contributing_estimate,
            extra=outcome_extra(aggregate, extra),
        )

    def exact_answer(self, epoch: int, readings: ReadingFn) -> float:
        return exact_over(self._aggregate, readings, self._alive_sensors, epoch)

    def adapt(self, epoch: int, outcome: EpochOutcome) -> None:
        """SD has no mode adaptation (ring levels are maintained offline)."""
