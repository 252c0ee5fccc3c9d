"""Reading workloads and item streams.

Every workload is a pure function of (node, epoch) and a seed, so runs are
reproducible and schemes compared on the same seed see identical data.

Reading workloads (for Count/Sum/Average/...):

* :class:`ConstantReadings` — every sensor reads the same value (Count-like).
* :class:`UniformReadings` — i.i.d. uniform integers per (node, epoch).
* :class:`DiurnalLightReadings` — a day/night light cycle with per-node
  phase and noise, shaped after the Intel lab light traces.

Item streams (for Frequent Items/Quantiles):

* :class:`ZipfItemStream` — skewed items shared across nodes (frequent items
  exist network-wide).
* :class:`DisjointUniformItemStream` — the paper's synthetic Figure 8
  dataset: "the same item never occurs in multiple streams and within a
  stream the items are uniformly distributed".
* :class:`LightItemStream` — quantized diurnal light levels, the
  LabData-style item workload (consensus readings are frequent).
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro._hashing import hash_key, hash_unit, hash_unit_batch, stream_rng
from repro.errors import ConfigurationError
from repro.network.placement import NodeId

#: Most (node, epoch) cells one ``hash_unit_batch`` pass of a reading block
#: covers. A block is hashed in runs of whole epoch rows under this size, so
#: the uint64 temporaries of the hash chain stay under a MB each however many
#: nodes x epochs the caller asks for.
BLOCK_CHUNK_CELLS = 1 << 16


def _empty_block(nodes: Sequence[NodeId], epochs: Sequence[int]):
    """An unfilled float64 ``(epochs, nodes)`` block and the int64 node column."""
    node_column = np.asarray(nodes, dtype=np.int64)
    return np.empty((len(epochs), len(node_column)), dtype=np.float64), node_column


def _row_chunks(out: np.ndarray, epochs: Sequence[int]):
    """``(epoch column, view of out)`` over runs of whole rows of ``out``,
    each under :data:`BLOCK_CHUNK_CELLS` cells (one row at least)."""
    if out.size == 0:
        return
    epoch_column = np.asarray(epochs, dtype=np.int64)
    step = max(1, BLOCK_CHUNK_CELLS // out.shape[1])
    for start in range(0, len(epoch_column), step):
        yield epoch_column[start : start + step], out[start : start + step]


class ConstantReadings:
    """Every sensor reads ``value`` at every epoch."""

    def __init__(self, value: float = 1.0) -> None:
        self.value = value

    def __call__(self, node: NodeId, epoch: int) -> float:
        return self.value

    def batch(self, nodes: Sequence[NodeId], epoch: int) -> List[float]:
        """One epoch's readings for many nodes (identical to per-node calls)."""
        return [self.value] * len(nodes)

    def block(self, nodes: Sequence[NodeId], epochs: Sequence[int]) -> np.ndarray:
        """Readings as a float64 ``(epochs, nodes)`` matrix.

        Row ``j`` equals ``[self(node, epochs[j]) for node in nodes]``; the
        array consumers (fused kernels, vectorised truth) read this form.
        """
        return np.full((len(epochs), len(nodes)), self.value, dtype=np.float64)


class UniformReadings:
    """Independent uniform integer readings in [low, high]."""

    def __init__(self, low: int = 0, high: int = 100, seed: int = 0) -> None:
        if low > high:
            raise ConfigurationError("low cannot exceed high")
        self.low = low
        self.high = high
        self.seed = seed

    def __call__(self, node: NodeId, epoch: int) -> float:
        span = self.high - self.low + 1
        draw = hash_unit("uniform-reading", self.seed, node, epoch)
        return float(self.low + int(draw * span))

    def batch(self, nodes: Sequence[NodeId], epoch: int) -> List[float]:
        """One epoch's readings for many nodes, as plain Python floats.

        A one-row :meth:`block`, so there is one vectorised generator; the
        list form is what the object engine (and every ``hash_key`` token
        derived from a reading) consumes.
        """
        return self.block(nodes, (epoch,))[0].tolist()

    def block(self, nodes: Sequence[NodeId], epochs: Sequence[int]) -> np.ndarray:
        """Readings as a float64 ``(epochs, nodes)`` matrix.

        Row ``j`` equals ``[self(node, epochs[j]) for node in nodes]`` bit
        for bit: the batch hash helper reproduces the scalar draws exactly,
        ``draw * span`` is the same float64 product, ``np.floor`` is
        ``int()`` on a non-negative value, and ``low + k`` is exact in
        float64 at any reading magnitude a sensor reports.
        """
        span = self.high - self.low + 1
        prefix = hash_key("uniform-reading", self.seed)
        out, node_column = _empty_block(nodes, epochs)
        for rows, chunk in _row_chunks(out, epochs):
            draws = hash_unit_batch(
                prefix,
                np.tile(node_column, len(rows)),
                np.repeat(rows, len(node_column)),
            )
            chunk[:] = (self.low + np.floor(draws * span)).reshape(chunk.shape)
        return out


class DiurnalLightReadings:
    """A day/night light cycle with per-node phase offsets and noise.

    value = max(0, base + amplitude * sin(2*pi*epoch/period + phase(node))
    + noise), rounded to an integer lux-like level.
    """

    def __init__(
        self,
        base: float = 250.0,
        amplitude: float = 180.0,
        period: int = 288,
        noise: float = 25.0,
        seed: int = 0,
    ) -> None:
        if period <= 0:
            raise ConfigurationError("period must be positive")
        self.base = base
        self.amplitude = amplitude
        self.period = period
        self.noise = noise
        self.seed = seed

    def _phase(self, node: NodeId) -> float:
        # Nodes near a window lead the cycle slightly; a small per-node phase
        # keeps readings correlated but not identical.
        return 0.5 * hash_unit("light-phase", self.seed, node)

    def __call__(self, node: NodeId, epoch: int) -> float:
        angle = 2.0 * math.pi * (epoch % self.period) / self.period
        level = self.base + self.amplitude * math.sin(angle + self._phase(node))
        wobble = (hash_unit("light-noise", self.seed, node, epoch) - 0.5) * 2.0
        level += wobble * self.noise
        return float(max(0, int(round(level))))

    def batch(self, nodes: Sequence[NodeId], epoch: int) -> List[float]:
        """One epoch's readings for many nodes: a one-row :meth:`block`."""
        return self.block(nodes, (epoch,))[0].tolist()

    def block(self, nodes: Sequence[NodeId], epochs: Sequence[int]) -> np.ndarray:
        """Readings as a float64 ``(epochs, nodes)`` matrix.

        Cell ``[j][i]`` equals ``self(nodes[i], epochs[j])`` bit for bit: the
        phase and noise hashes are the batch helper's exact twins, every
        float operation is the scalar one in the same order, ``sin`` is
        ``math.sin`` per cell (numpy's may differ in the last ulp),
        ``np.rint`` rounds half to even like ``round``, and the clip at zero
        yields ``+0.0`` where ``max(0, ...)`` does.
        """
        out, node_column = _empty_block(nodes, epochs)
        phases = 0.5 * hash_unit_batch(("light-phase", self.seed), node_column)
        noise = hash_key("light-noise", self.seed)
        period = self.period
        for rows, chunk in _row_chunks(out, epochs):
            angles = np.array(
                [2.0 * math.pi * (epoch % period) / period for epoch in rows.tolist()]
            )
            cells = (angles[:, None] + phases).ravel().tolist()
            sines = np.fromiter(map(math.sin, cells), np.float64, len(cells))
            wobble = (
                hash_unit_batch(
                    noise,
                    np.tile(node_column, len(rows)),
                    np.repeat(rows, len(node_column)),
                )
                - 0.5
            ) * 2.0
            level = np.rint(self.base + self.amplitude * sines + wobble * self.noise)
            chunk[:] = np.where(level > 0.0, level, 0.0).reshape(chunk.shape)
        return out


class ZipfItemStream:
    """Zipf(alpha)-distributed items over a shared universe.

    All nodes draw from the same skewed distribution, so the head of the
    Zipf curve is genuinely frequent network-wide — the regime where
    epsilon-deficient counting shines.
    """

    def __init__(
        self,
        items_per_node: int = 100,
        universe: int = 1000,
        alpha: float = 1.1,
        seed: int = 0,
    ) -> None:
        if items_per_node <= 0 or universe <= 0:
            raise ConfigurationError("items_per_node and universe must be positive")
        if alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        self.items_per_node = items_per_node
        self.universe = universe
        self.alpha = alpha
        self.seed = seed
        weights = [1.0 / (rank**alpha) for rank in range(1, universe + 1)]
        total = sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        self._cumulative = cumulative

    def items(self, node: NodeId, epoch: int) -> List[int]:
        rng = stream_rng("zipf-items", self.seed, node, epoch)
        return [
            bisect.bisect_left(self._cumulative, rng.random())
            for _ in range(self.items_per_node)
        ]


class DisjointUniformItemStream:
    """The paper's Figure 8 synthetic dataset.

    Node ``v`` draws uniformly from its private range
    [v * values_per_node, (v+1) * values_per_node), so no item crosses
    streams and nothing is frequent — the worst case that separates the
    precision-gradient strategies.
    """

    def __init__(
        self,
        items_per_node: int = 100,
        values_per_node: int = 50,
        seed: int = 0,
    ) -> None:
        if items_per_node <= 0 or values_per_node <= 0:
            raise ConfigurationError("stream sizes must be positive")
        self.items_per_node = items_per_node
        self.values_per_node = values_per_node
        self.seed = seed

    def items(self, node: NodeId, epoch: int) -> List[int]:
        rng = stream_rng("disjoint-items", self.seed, node, epoch)
        base = node * self.values_per_node
        return [
            base + rng.randrange(self.values_per_node)
            for _ in range(self.items_per_node)
        ]


class LightItemStream:
    """Quantized light readings as items (the LabData item workload).

    Each node contributes ``items_per_node`` light samples per epoch,
    quantized into ``bucket``-lux-wide levels; because the diurnal cycle is
    network-wide, a handful of levels dominate — the consensus-measure
    scenario the paper motivates for biological/chemical sensing.

    ``offset_fn`` adds a per-node DC offset (lux) to every sample. Passing a
    *position-based* offset (window distance in a lab) makes the head items
    spatially concentrated, which is what real light traces look like — and
    what makes tree aggregation lose specific frequent items (not just
    uniform mass) when a subtree's messages drop (Figure 9).
    """

    def __init__(
        self,
        items_per_node: int = 50,
        bucket: int = 25,
        readings: DiurnalLightReadings | None = None,
        offset_fn: Callable[[NodeId], float] | None = None,
        seed: int = 0,
    ) -> None:
        if items_per_node <= 0 or bucket <= 0:
            raise ConfigurationError("items_per_node and bucket must be positive")
        self.items_per_node = items_per_node
        self.bucket = bucket
        self.readings = readings or DiurnalLightReadings(seed=seed)
        self.offset_fn = offset_fn
        self.seed = seed

    def items(self, node: NodeId, epoch: int) -> List[int]:
        # Sub-epoch samples: shift the phase a little per sample via the
        # noise term of the underlying diurnal workload.
        offset = self.offset_fn(node) if self.offset_fn is not None else 0.0
        collected = []
        for sample in range(self.items_per_node):
            virtual_epoch = epoch * self.items_per_node + sample
            level = self.readings(node, virtual_epoch) + offset
            collected.append(max(0, int(level)) // self.bucket)
        return collected


def exact_item_counts(
    stream, nodes: Sequence[NodeId], epoch: int
) -> Dict[int, int]:
    """Ground-truth item frequencies across a set of nodes at one epoch."""
    counts: Dict[int, int] = {}
    for node in nodes:
        for item in stream.items(node, epoch):
            counts[item] = counts.get(item, 0) + 1
    return counts
