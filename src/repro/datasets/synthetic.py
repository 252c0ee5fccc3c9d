"""The ``Synthetic`` scenario family (Section 7.1) and the Figure 7 sweeps.

The paper's main synthetic deployment is 600 sensors placed randomly in a
20 ft x 20 ft area with the base station at (10, 10). The Figure 7 sweeps
vary sensor density (7a) and deployment-area width (7b); for those we use a
jittered grid so that low-density deployments stay radio-connected while
preserving the density's effect on tree bushiness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro._hashing import stream_rng
from repro.errors import ConfigurationError, TopologyError
from repro.network.placement import (
    Deployment,
    Point,
    grid_random_placement,
    placement_from_points,
)
from repro.network.radio import Connectivity, DiscRadio
from repro.network.rings import RingsTopology

#: Radio range used for the 600-node Synthetic deployment: ~10 expected
#: neighbours at density 1.5, matching a dense mote deployment.
SYNTHETIC_RADIO_RANGE = 1.5

#: Target mean node degree when auto-sizing the radio range to a density.
#: ~30 neighbours gives nodes a median of 5-8 upstream ring neighbours, the
#: path-redundancy regime in which synopsis diffusion keeps ~90% of readings
#: at 30% link loss — the robustness profile the paper reports for rings.
_TARGET_DEGREE = 30.0


def radio_range_for_density(density: float, target_degree: float = _TARGET_DEGREE) -> float:
    """Radio range giving ~``target_degree`` expected neighbours at ``density``.

    Expected degree in a Poisson field is pi * r^2 * density.
    """
    if density <= 0:
        raise ConfigurationError("density must be positive")
    return math.sqrt(target_degree / (math.pi * density))

#: Sensor density of the ``synthetic-scale`` family: the paper's 600-node
#: density (600 / 20x20 = 1.5), held constant as the node count grows so the
#: mean degree — and thus per-node memory and tree bushiness — stays at the
#: paper's regime instead of densifying quadratically.
SCALE_DENSITY = 1.5


def scale_area_side(num_sensors: int) -> float:
    """Side of the square area that keeps ``synthetic-scale`` at the paper's
    density for ``num_sensors`` motes."""
    if num_sensors <= 0:
        raise ConfigurationError("num_sensors must be positive")
    return math.sqrt(num_sensors / SCALE_DENSITY)


def make_scale_scenario(num_sensors: int, seed: int = 0) -> SyntheticScenario:
    """The constant-density scale family: ``synthetic`` at any node count.

    The classic ``synthetic`` topology fixes the 20x20 area, so its density
    (and node degree) grows linearly with N — a 100k-node instance would
    have ~1800 neighbours per node. This family grows the area instead,
    keeping degree ~30 at every size.
    """
    side = scale_area_side(num_sensors)
    return make_synthetic_scenario(
        num_sensors=num_sensors, width=side, height=side, seed=seed
    )


#: Radio range for the Figure 7 sweeps (kept fixed across densities/widths so
#: density genuinely changes node degree). Sized so the sparsest grid
#: (density 0.2 => cell ~2.24) stays connected under the sweep jitter.
SWEEP_RADIO_RANGE = 2.8

#: Jitter used by the sweep deployments: low enough that grid neighbours
#: always stay within SWEEP_RADIO_RANGE (cell * (1 + 2 * jitter) < range).
SWEEP_JITTER = 0.1


@dataclass(frozen=True)
class SyntheticScenario:
    """A ready-to-use deployment with its radio, connectivity and rings."""

    deployment: Deployment
    radio: DiscRadio
    connectivity: Connectivity
    rings: RingsTopology


def make_synthetic_deployment(
    num_sensors: int = 600,
    width: float = 20.0,
    height: float = 20.0,
    seed: int = 0,
) -> Deployment:
    """The paper's Synthetic deployment: uniform random placement."""
    return grid_random_placement(
        num_sensors=num_sensors,
        width=width,
        height=height,
        base_position=(width / 2.0, height / 2.0),
        seed=seed,
        name=f"synthetic-{num_sensors}",
    )


def make_synthetic_scenario(
    num_sensors: int = 600,
    width: float = 20.0,
    height: float = 20.0,
    radio_range: float | None = None,
    seed: int = 0,
    max_seed_retries: int = 20,
) -> SyntheticScenario:
    """Build deployment + radio + rings, retrying seeds until connected.

    When ``radio_range`` is omitted it is sized from the deployment density
    to give ~10 expected neighbours (1.5 units for the paper's 600-node
    20x20 scenario). Uniform random placement occasionally strands a node
    beyond radio range; the paper's simulator simply would not produce such
    a topology, so we retry with derived seeds (deterministically) until
    connectivity holds.
    """
    if radio_range is None:
        density = num_sensors / (width * height)
        radio_range = max(
            radio_range_for_density(density), SYNTHETIC_RADIO_RANGE
        )
    radio = DiscRadio(radio_range)
    last_error: TopologyError | None = None
    for attempt in range(max_seed_retries):
        deployment = make_synthetic_deployment(
            num_sensors, width, height, seed=seed + 1000 * attempt
        )
        try:
            connectivity = radio.connectivity(deployment)
        except TopologyError as error:  # disconnected: try the next seed
            last_error = error
            continue
        rings = RingsTopology.build(deployment, connectivity)
        return SyntheticScenario(deployment, radio, connectivity, rings)
    raise ConfigurationError(
        f"could not find a connected placement after {max_seed_retries} "
        f"seeds: {last_error}"
    )


def grid_jitter_placement(
    density: float,
    width: float,
    height: float,
    jitter: float = 0.35,
    base_position: Point | None = None,
    seed: int = 0,
    name: str | None = None,
) -> Deployment:
    """Jittered-grid placement with a target sensor density.

    Sensors sit near the centres of a sqrt-density grid, displaced by up to
    ``jitter`` cell-widths. Guarantees rough uniformity (so low densities
    remain connected under a fixed radio range) while node degree still
    scales with density — which is what Figure 7a studies.
    """
    if density <= 0:
        raise ConfigurationError("density must be positive")
    if not 0.0 <= jitter < 0.5:
        raise ConfigurationError("jitter must be in [0, 0.5)")
    target = max(1, round(density * width * height))
    columns = max(1, round(math.sqrt(target * width / height)))
    rows = max(1, math.ceil(target / columns))
    cell_w = width / columns
    cell_h = height / rows
    rng = stream_rng("grid-jitter", seed, density, width, height)
    points = []
    placed = 0
    for row in range(rows):
        for column in range(columns):
            if placed >= target:
                break
            x = (column + 0.5 + rng.uniform(-jitter, jitter)) * cell_w
            y = (row + 0.5 + rng.uniform(-jitter, jitter)) * cell_h
            points.append((min(width, max(0.0, x)), min(height, max(0.0, y))))
            placed += 1
    if base_position is None:
        base_position = (width / 2.0, height / 2.0)
    return placement_from_points(
        points,
        base_position,
        width,
        height,
        name=name or f"grid-{density:g}x{width:g}x{height:g}",
    )


def density_sweep_deployment(
    density: float,
    width: float = 20.0,
    height: float = 20.0,
    seed: int = 0,
) -> Tuple[Deployment, DiscRadio]:
    """A Figure 7a point: fixed area and radio range, varying density."""
    deployment = grid_jitter_placement(
        density,
        width,
        height,
        jitter=SWEEP_JITTER,
        seed=seed,
        name=f"density-{density:g}",
    )
    return deployment, DiscRadio(SWEEP_RADIO_RANGE)


def width_sweep_deployment(
    width: float,
    height: float = 20.0,
    density: float = 1.0,
    seed: int = 0,
) -> Tuple[Deployment, DiscRadio]:
    """A Figure 7b point: fixed density 1, varying deployment-area width.

    The base station sits at the centre, as in the paper's deployments.
    """
    deployment = grid_jitter_placement(
        density,
        width,
        height,
        jitter=SWEEP_JITTER,
        seed=seed,
        name=f"width-{width:g}",
    )
    return deployment, DiscRadio(SWEEP_RADIO_RANGE)
