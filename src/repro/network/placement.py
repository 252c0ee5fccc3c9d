"""Sensor deployments: where the motes and the base station sit.

A :class:`Deployment` is a pure description of sensor positions; radio
connectivity and loss are layered on top by :mod:`repro.network.radio` and
:mod:`repro.network.failures`. The paper's ``Synthetic`` scenario (Section
7.1) is 600 sensors placed uniformly at random in a 20 ft x 20 ft area with
the base station at (10, 10); :func:`grid_random_placement` builds exactly
that family of deployments.

Node ids are dense ``0..n`` (0 the base station) and the coordinates live
id-indexed in two float64 columns, so a 100k-node deployment costs 16 bytes
per node. Every id or coordinate that crosses the API boundary is a plain
Python number: numpy scalars hash differently in the keyed-draw streams and
must never leak into ``hash_key`` tokens.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro._hashing import stream_rng
from repro.errors import ConfigurationError

#: Node identifier type. The base station is always node 0.
NodeId = int

#: The base station's reserved node id.
BASE_STATION: NodeId = 0

Point = Tuple[float, float]


class _PositionsView(Mapping):
    """Read-only ``node -> (x, y)`` mapping over the coordinate columns."""

    __slots__ = ("_xs", "_ys")

    def __init__(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self._xs = xs
        self._ys = ys

    def __getitem__(self, node: NodeId) -> Point:
        index = int(node)
        if not 0 <= index < len(self._xs):
            raise KeyError(node)
        return (float(self._xs[index]), float(self._ys[index]))

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(len(self._xs)))

    def __len__(self) -> int:
        return len(self._xs)

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < len(self._xs)


class Deployment:
    """An immutable set of sensor positions plus a base station.

    Attributes:
        xs, ys: float64 coordinate columns; row ``i`` is node ``i`` and row
            0 the base station.
        width: width of the deployment area (used by regional failure models
            and by plotting/rendering helpers).
        height: height of the deployment area.
        name: human-readable label used in experiment reports.
    """

    __slots__ = ("xs", "ys", "width", "height", "name", "_positions")

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        width: float,
        height: float,
        name: str = "deployment",
    ) -> None:
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        if self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
            raise ConfigurationError(
                "deployment needs matching one-dimensional coordinate columns"
            )
        if len(self.xs) < 1:
            raise ConfigurationError("deployment must include base station node 0")
        if width <= 0 or height <= 0:
            raise ConfigurationError("deployment area must have positive size")
        self.width = width
        self.height = height
        self.name = name
        self._positions = _PositionsView(self.xs, self.ys)

    @property
    def positions(self) -> Mapping:
        """Mapping from node id to (x, y) coordinates."""
        return self._positions

    @property
    def base_station(self) -> NodeId:
        """The base station node id (always 0)."""
        return BASE_STATION

    @property
    def sensor_ids(self) -> List[NodeId]:
        """All node ids except the base station, in sorted order."""
        return list(range(1, len(self.xs)))

    @property
    def node_ids(self) -> List[NodeId]:
        """All node ids including the base station, in sorted order."""
        return list(range(len(self.xs)))

    @property
    def num_sensors(self) -> int:
        """Number of sensor motes (excluding the base station)."""
        return len(self.xs) - 1

    def position(self, node: NodeId) -> Point:
        """Return the (x, y) position of ``node``."""
        return self._positions[node]

    def distance(self, a: NodeId, b: NodeId) -> float:
        """Euclidean distance between two nodes."""
        ax, ay = self._positions[a]
        bx, by = self._positions[b]
        return ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5

    def nodes_in_rect(
        self, lower: Point, upper: Point, include_base: bool = False
    ) -> List[NodeId]:
        """Return nodes whose positions fall inside an axis-aligned rectangle.

        Args:
            lower: (x, y) of the rectangle's lower-left corner.
            upper: (x, y) of the rectangle's upper-right corner.
            include_base: whether the base station may be included.
        """
        (lx, ly), (ux, uy) = lower, upper
        inside = (
            (self.xs >= lx) & (self.xs <= ux)
            & (self.ys >= ly) & (self.ys <= uy)
        )
        if not include_base:
            inside[BASE_STATION] = False
        return np.flatnonzero(inside).tolist()

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(len(self.xs)))

    def __len__(self) -> int:
        return len(self.xs)


def grid_random_placement(
    num_sensors: int,
    width: float = 20.0,
    height: float = 20.0,
    base_position: Point | None = None,
    seed: int = 0,
    name: str | None = None,
) -> Deployment:
    """Place ``num_sensors`` motes uniformly at random in a rectangle.

    This reproduces the paper's ``Synthetic`` scenario generator: 600 sensors
    in a 20 x 20 area with the base station at (10, 10). The placement is
    deterministic in ``seed``.

    Args:
        num_sensors: number of sensor motes (the base station is extra).
        width: area width.
        height: area height.
        base_position: base-station position; defaults to the area centre.
        seed: RNG seed; the same seed always yields the same deployment.
        name: label for reports; defaults to ``synthetic-<n>``.
    """
    if num_sensors <= 0:
        raise ConfigurationError("num_sensors must be positive")
    rng = stream_rng("placement", seed, num_sensors, width, height)
    if base_position is None:
        base_position = (width / 2.0, height / 2.0)
    xs = np.empty(num_sensors + 1, dtype=np.float64)
    ys = np.empty(num_sensors + 1, dtype=np.float64)
    xs[BASE_STATION], ys[BASE_STATION] = base_position
    uniform = rng.uniform
    for node in range(1, num_sensors + 1):
        xs[node] = uniform(0.0, width)
        ys[node] = uniform(0.0, height)
    return Deployment(
        xs, ys, width, height, name=name or f"synthetic-{num_sensors}"
    )


def placement_from_points(
    points: Sequence[Point],
    base_position: Point,
    width: float,
    height: float,
    name: str = "custom",
) -> Deployment:
    """Build a deployment from explicit sensor coordinates.

    ``points`` become nodes 1..n in order; the base station is node 0 at
    ``base_position``. Used by the LabData reconstruction, the grid-jitter
    sweeps and by tests.
    """
    coords = np.array([base_position, *points], dtype=np.float64).reshape(-1, 2)
    return Deployment(coords[:, 0], coords[:, 1], width, height, name=name)
