"""Failure models: how lossy each link is at each epoch.

The paper's Section 7.1 studies two failure models over the Synthetic
deployment:

* ``Global(p)`` — every node experiences message loss rate ``p``.
* ``Regional(p1, p2)`` — nodes inside the rectangle {(0,0),(10,10)} of the
  20x20 area lose messages at rate ``p1``; everybody else at rate ``p2``.

Loss in the paper is attributed to the *sending* node ("all nodes within the
region experience a message loss rate of p1"), so our models resolve the loss
probability from the sender's position. :class:`FailureSchedule` composes
models over time for the Figure 6 timeline experiment, and
:class:`LinkLossTable` supports per-link rates for LabData-style deployments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Protocol, Sequence, Tuple

import numpy as _np

from repro.errors import ConfigurationError
from repro.network.placement import Deployment, NodeId, Point


class FailureModel(Protocol):
    """Resolves the loss probability of a transmission at a given epoch.

    Models may additionally expose ``loss_rate_batch(deployment, senders,
    receivers, epoch) -> ndarray`` returning, for equal-length node
    sequences, exactly ``[loss_rate(d, s, r, epoch) for s, r in zip(...)]``;
    the batched channel uses it to skip per-pair Python calls. It is
    optional — the channel falls back to the scalar method.
    """

    def loss_rate(
        self, deployment: Deployment, sender: NodeId, receiver: NodeId, epoch: int
    ) -> float:
        """Probability that a message from ``sender`` to ``receiver`` is lost."""
        ...


def loss_rates(
    model: FailureModel,
    deployment: Deployment,
    senders: Sequence[NodeId],
    receivers: Sequence[NodeId],
    epoch: int,
) -> _np.ndarray:
    """``model``'s loss rate for every (sender, receiver) pair, as float64.

    The model's ``loss_rate_batch`` when it has one, else its scalar
    ``loss_rate`` per pair (a model registered from outside the package
    may have only that; every built-in model has both). Either way the
    caller sees one return type.
    """
    batch = getattr(model, "loss_rate_batch", None)
    if batch is not None:
        rates = batch(deployment, senders, receivers, epoch)
    else:
        rates = [
            model.loss_rate(deployment, sender, receiver, epoch)
            for sender, receiver in zip(senders, receivers)
        ]
    return _np.asarray(rates, dtype=_np.float64)


def _check_rate(rate: float, label: str) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"{label} must be in [0, 1], got {rate}")
    return rate


#: Pair-key encoding for vectorized (sender, receiver) -> rate lookups.
#: Node ids are small non-negative ints, so ``sender * SHIFT + receiver``
#: is collision-free and fits comfortably in int64.
_PAIR_SHIFT = 1 << 32


def _pair_lookup_arrays(rates: Dict[Tuple[NodeId, NodeId], float]):
    """Sorted (encoded-key, rate) arrays for a per-link rate table."""
    keys = _np.fromiter(
        (sender * _PAIR_SHIFT + receiver for sender, receiver in rates),
        dtype=_np.int64,
        count=len(rates),
    )
    values = _np.fromiter(rates.values(), dtype=_np.float64, count=len(rates))
    order = _np.argsort(keys)
    return keys[order], values[order]


def _pair_rates(
    lookup,
    default: float,
    senders: Sequence[NodeId],
    receivers: Sequence[NodeId],
):
    """Vectorized dict-equivalent: ``rates.get((s, r), default)`` per pair.

    ``lookup`` is the (sorted keys, values) pair from
    :func:`_pair_lookup_arrays`. Values come straight from the table, so
    hits are bit-identical to the scalar ``dict.get``; misses take
    ``default`` exactly.
    """
    count = len(senders)
    out = _np.full(count, default, dtype=_np.float64)
    keys, values = lookup
    if count and keys.size:
        probe = _np.asarray(senders, dtype=_np.int64) * _PAIR_SHIFT + _np.asarray(
            receivers, dtype=_np.int64
        )
        positions = _np.minimum(
            _np.searchsorted(keys, probe), keys.size - 1
        )
        hits = keys[positions] == probe
        out[hits] = values[positions[hits]]
    return out


@dataclass(frozen=True)
class NoLoss:
    """A perfectly reliable network (used for load measurements, Figure 8)."""

    def loss_rate(
        self, deployment: Deployment, sender: NodeId, receiver: NodeId, epoch: int
    ) -> float:
        return 0.0

    def loss_rate_batch(
        self,
        deployment: Deployment,
        senders: Sequence[NodeId],
        receivers: Sequence[NodeId],
        epoch: int,
    ):
        return _np.zeros(len(senders), dtype=_np.float64)


@dataclass(frozen=True)
class GlobalLoss:
    """``Global(p)``: a uniform loss rate for every transmission."""

    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate, "rate")

    def loss_rate(
        self, deployment: Deployment, sender: NodeId, receiver: NodeId, epoch: int
    ) -> float:
        return self.rate

    def loss_rate_batch(
        self,
        deployment: Deployment,
        senders: Sequence[NodeId],
        receivers: Sequence[NodeId],
        epoch: int,
    ):
        return _np.full(len(senders), self.rate, dtype=_np.float64)


@dataclass(frozen=True)
class RegionalLoss:
    """``Regional(p1, p2)``: loss ``p1`` inside a rectangle, ``p2`` outside.

    The default rectangle is the paper's {(0,0),(10,10)} quadrant of the
    20x20 Synthetic deployment. The *sender's* position decides the rate.
    """

    inside_rate: float
    outside_rate: float
    lower: Point = (0.0, 0.0)
    upper: Point = (10.0, 10.0)

    def __post_init__(self) -> None:
        _check_rate(self.inside_rate, "inside_rate")
        _check_rate(self.outside_rate, "outside_rate")
        if self.lower[0] > self.upper[0] or self.lower[1] > self.upper[1]:
            raise ConfigurationError("regional rectangle has negative extent")

    def contains(self, deployment: Deployment, node: NodeId) -> bool:
        """Whether ``node`` sits inside the failure rectangle."""
        x, y = deployment.position(node)
        return (
            self.lower[0] <= x <= self.upper[0]
            and self.lower[1] <= y <= self.upper[1]
        )

    def loss_rate(
        self, deployment: Deployment, sender: NodeId, receiver: NodeId, epoch: int
    ) -> float:
        if self.contains(deployment, sender):
            return self.inside_rate
        return self.outside_rate

    def _sender_rates(self, deployment: Deployment):
        """Dense node-id -> loss-rate lookup table, cached per deployment.

        The cache holds the deployment object itself, so the identity check
        cannot alias a garbage-collected deployment. It is dropped on
        pickling (:meth:`__getstate__`): worker processes and the on-disk
        result cache see only the declared rate fields, so sweeps sharing
        one model instance across deployments can never resurrect a stale
        table.
        """
        cached = self.__dict__.get("_rates_cache")
        if cached is not None and cached[0] is deployment:
            return cached[1]
        node_ids = deployment.node_ids
        size = max(node_ids, default=-1) + 1
        rates = _np.full(size, self.outside_rate, dtype=_np.float64)
        for node in node_ids:
            if self.contains(deployment, node):
                rates[node] = self.inside_rate
        object.__setattr__(self, "_rates_cache", (deployment, rates))
        return rates

    def __getstate__(self):
        """Pickle only the declared fields, never the per-deployment cache."""
        return {
            name: value
            for name, value in self.__dict__.items()
            if name != "_rates_cache"
        }

    def loss_rate_batch(
        self,
        deployment: Deployment,
        senders: Sequence[NodeId],
        receivers: Sequence[NodeId],
        epoch: int,
    ):
        if not len(senders):
            return _np.zeros(0, dtype=_np.float64)
        return self._sender_rates(deployment)[
            _np.asarray(senders, dtype=_np.int64)
        ]


@dataclass(frozen=True)
class LinkLossTable:
    """Explicit per-link loss rates with a default fallback.

    Used by the LabData reconstruction, where each (sender, receiver) link has
    its own measured-style loss rate.
    """

    rates: Dict[Tuple[NodeId, NodeId], float]
    default: float = 0.0

    def __post_init__(self) -> None:
        _check_rate(self.default, "default")
        for pair, rate in self.rates.items():
            _check_rate(rate, f"rate for link {pair}")

    def loss_rate(
        self, deployment: Deployment, sender: NodeId, receiver: NodeId, epoch: int
    ) -> float:
        return self.rates.get((sender, receiver), self.default)

    def _lookup(self):
        """Sorted-key lookup arrays over ``rates``, built once per instance.

        Dropped on pickling (:meth:`__getstate__`), like
        :meth:`RegionalLoss._sender_rates`'s cache.
        """
        cached = self.__dict__.get("_lookup_cache")
        if cached is None:
            cached = _pair_lookup_arrays(self.rates)
            object.__setattr__(self, "_lookup_cache", cached)
        return cached

    def __getstate__(self):
        return {
            name: value
            for name, value in self.__dict__.items()
            if name != "_lookup_cache"
        }

    def loss_rate_batch(
        self,
        deployment: Deployment,
        senders: Sequence[NodeId],
        receivers: Sequence[NodeId],
        epoch: int,
    ):
        """Vectorized per-link lookup, bit-identical to the scalar method."""
        return _pair_rates(self._lookup(), self.default, senders, receivers)


@dataclass(frozen=True)
class FailureSchedule:
    """A piecewise-constant timeline of failure models.

    ``phases`` is a list of (start_epoch, model); the model whose start epoch
    is the largest one not exceeding the current epoch applies. The paper's
    Figure 6 timeline is::

        FailureSchedule([
            (0,   GlobalLoss(0.0)),
            (100, RegionalLoss(0.3, 0.0)),
            (200, GlobalLoss(0.3)),
            (300, GlobalLoss(0.0)),
        ])
    """

    phases: Sequence[Tuple[int, FailureModel]]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("schedule needs at least one phase")
        starts = [start for start, _ in self.phases]
        if starts != sorted(starts):
            raise ConfigurationError("schedule phases must be sorted by start epoch")
        if starts[0] != 0:
            raise ConfigurationError("first phase must start at epoch 0")

    def model_at(self, epoch: int) -> FailureModel:
        """Return the failure model in force at ``epoch``."""
        current = self.phases[0][1]
        for start, model in self.phases:
            if start <= epoch:
                current = model
            else:
                break
        return current

    def loss_rate(
        self, deployment: Deployment, sender: NodeId, receiver: NodeId, epoch: int
    ) -> float:
        return self.model_at(epoch).loss_rate(deployment, sender, receiver, epoch)

    def loss_rate_batch(
        self,
        deployment: Deployment,
        senders: Sequence[NodeId],
        receivers: Sequence[NodeId],
        epoch: int,
    ):
        # One return type whatever the phase's model: the blocked delivery
        # planner must never see an ndarray on one phase and a list on the
        # next.
        return loss_rates(
            self.model_at(epoch), deployment, senders, receivers, epoch
        )


@dataclass(frozen=True)
class ComposedLoss:
    """Combine a baseline (radio-quality) loss with a failure model.

    A message survives only if it survives both the radio's distance-based
    loss and the scenario's failure-model loss; the combined loss rate is
    ``1 - (1 - base)(1 - failure)``.
    """

    base_rates: Dict[Tuple[NodeId, NodeId], float]
    failure: FailureModel

    def loss_rate(
        self, deployment: Deployment, sender: NodeId, receiver: NodeId, epoch: int
    ) -> float:
        base = self.base_rates.get((sender, receiver), 0.0)
        extra = self.failure.loss_rate(deployment, sender, receiver, epoch)
        return 1.0 - (1.0 - base) * (1.0 - extra)

    def _lookup(self):
        """Sorted-key lookup arrays over ``base_rates`` (see LinkLossTable)."""
        cached = self.__dict__.get("_lookup_cache")
        if cached is None:
            cached = _pair_lookup_arrays(self.base_rates)
            object.__setattr__(self, "_lookup_cache", cached)
        return cached

    def __getstate__(self):
        return {
            name: value
            for name, value in self.__dict__.items()
            if name != "_lookup_cache"
        }

    def loss_rate_batch(
        self,
        deployment: Deployment,
        senders: Sequence[NodeId],
        receivers: Sequence[NodeId],
        epoch: int,
    ):
        """Vectorized composition, bit-identical to the scalar method.

        The base-rate lookup is one searchsorted sweep; the failure model's
        own ``loss_rate_batch`` is used when it exists (falling back to its
        scalar method per pair), and the survival product runs elementwise
        in float64 — the same IEEE operations, in the same order, as the
        scalar expression.
        """
        base = _pair_rates(self._lookup(), 0.0, senders, receivers)
        extra = loss_rates(self.failure, deployment, senders, receivers, epoch)
        return 1.0 - (1.0 - base) * (1.0 - extra)
