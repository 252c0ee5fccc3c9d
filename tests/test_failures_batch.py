"""Regression tests for the failure-model batch paths (bugfix sweep).

``LinkLossTable`` and ``ComposedLoss`` previously had no
``loss_rate_batch``, silently dropping LabData and radio-composed runs off
the vectorized channel path onto the per-edge Python loop;
``FailureSchedule.loss_rate_batch`` returned an ndarray or a Python list
depending on the phase; ``RegionalLoss`` crashed on empty batches and
cached by mutating a shared frozen dataclass. These tests pin the fixes:

* batch == scalar, element for element, bit for bit;
* the channel's batch and blocked paths *use* the vectorized method — the
  scalar ``loss_rate`` is never called per edge (asserted by counting);
* both schedule branches return one type;
* caches never leak through pickling (process pools, result cache);
* end-to-end golden digests over the labdata (ComposedLoss) and timeline
  (FailureSchedule) scenarios, recorded from the seed revision.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import goldens
from goldens import assert_golden

from repro.api import RunConfig, Session
from repro.network.failures import (
    ComposedLoss,
    FailureSchedule,
    GlobalLoss,
    LinkLossTable,
    NoLoss,
    RegionalLoss,
)
from repro.network.links import Channel, Transmission, transmit_sequential
from repro.network.placement import grid_random_placement


@pytest.fixture()
def deployment():
    return grid_random_placement(40, seed=3)


@pytest.fixture()
def link_table():
    return LinkLossTable(
        rates={(1, 2): 0.5, (3, 4): 0.25, (2, 1): 0.1, (7, 9): 1.0},
        default=0.05,
    )


PAIRS = ([1, 3, 2, 9, 1, 7, 40], [2, 4, 1, 9, 3, 9, 1])


class TestLinkLossTableBatch:
    def test_matches_scalar_exactly(self, deployment, link_table):
        senders, receivers = PAIRS
        batch = link_table.loss_rate_batch(deployment, senders, receivers, 0)
        scalar = [
            link_table.loss_rate(deployment, s, r, 0)
            for s, r in zip(senders, receivers)
        ]
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == np.float64
        assert list(batch) == scalar  # bit-identical, not approx

    def test_empty_batch(self, deployment, link_table):
        batch = link_table.loss_rate_batch(deployment, [], [], 0)
        assert isinstance(batch, np.ndarray) and batch.size == 0

    def test_empty_table_takes_default(self, deployment):
        table = LinkLossTable(rates={}, default=0.2)
        batch = table.loss_rate_batch(deployment, [1, 2], [2, 3], 0)
        assert list(batch) == [0.2, 0.2]

    def test_cache_not_pickled(self, deployment, link_table):
        link_table.loss_rate_batch(deployment, *PAIRS, 0)
        assert "_lookup_cache" in link_table.__dict__
        clone = pickle.loads(pickle.dumps(link_table))
        assert "_lookup_cache" not in clone.__dict__
        assert clone == link_table


class TestComposedLossBatch:
    @pytest.mark.parametrize(
        "failure",
        [
            GlobalLoss(0.3),
            RegionalLoss(0.4, 0.1),
            NoLoss(),
            FailureSchedule([(0, GlobalLoss(0.1)), (5, RegionalLoss(0.5, 0.0))]),
        ],
    )
    @pytest.mark.parametrize("epoch", [0, 7])
    def test_matches_scalar_exactly(self, deployment, failure, epoch):
        composed = ComposedLoss(
            base_rates={(1, 2): 0.5, (3, 4): 0.25, (7, 9): 0.8},
            failure=failure,
        )
        senders, receivers = PAIRS
        batch = composed.loss_rate_batch(deployment, senders, receivers, epoch)
        scalar = [
            composed.loss_rate(deployment, s, r, epoch)
            for s, r in zip(senders, receivers)
        ]
        assert isinstance(batch, np.ndarray)
        assert list(batch) == scalar

    def test_scalar_only_inner_failure(self, deployment):
        class ScalarOnly:
            def loss_rate(self, deployment, sender, receiver, epoch):
                return 0.25 if sender % 2 else 0.0

        composed = ComposedLoss(base_rates={(1, 2): 0.5}, failure=ScalarOnly())
        senders, receivers = PAIRS
        batch = composed.loss_rate_batch(deployment, senders, receivers, 0)
        scalar = [
            composed.loss_rate(deployment, s, r, 0)
            for s, r in zip(senders, receivers)
        ]
        assert isinstance(batch, np.ndarray)
        assert list(batch) == scalar

    def test_cache_not_pickled(self, deployment):
        composed = ComposedLoss(
            base_rates={(1, 2): 0.5}, failure=GlobalLoss(0.1)
        )
        composed.loss_rate_batch(deployment, *PAIRS, 0)
        clone = pickle.loads(pickle.dumps(composed))
        assert "_lookup_cache" not in clone.__dict__


class TestFailureScheduleBatch:
    def test_both_branches_return_ndarray(self, deployment):
        class ScalarOnly:
            def loss_rate(self, deployment, sender, receiver, epoch):
                return 0.4

        schedule = FailureSchedule([(0, GlobalLoss(0.2)), (10, ScalarOnly())])
        fast = schedule.loss_rate_batch(deployment, *PAIRS, 0)
        fallback = schedule.loss_rate_batch(deployment, *PAIRS, 15)
        assert isinstance(fast, np.ndarray) and fast.dtype == np.float64
        assert isinstance(fallback, np.ndarray) and fallback.dtype == np.float64
        assert list(fast) == [0.2] * len(PAIRS[0])
        assert list(fallback) == [0.4] * len(PAIRS[0])


class TestRegionalLossHardening:
    def test_empty_batch(self, deployment):
        model = RegionalLoss(0.3, 0.05)
        batch = model.loss_rate_batch(deployment, [], [], 0)
        assert isinstance(batch, np.ndarray) and batch.size == 0

    def test_empty_deployment_guarded(self):
        class EmptyDeployment:
            node_ids = []

            def position(self, node):  # pragma: no cover - never reached
                raise KeyError(node)

        model = RegionalLoss(0.3, 0.05)
        batch = model.loss_rate_batch(EmptyDeployment(), [], [], 0)
        assert batch.size == 0

    def test_cache_recomputes_per_deployment(self):
        model = RegionalLoss(0.3, 0.05)
        inside = grid_random_placement(5, width=10, height=10, seed=1)
        outside = grid_random_placement(
            5, width=10, height=10, base_position=(15.0, 15.0), seed=1
        )
        # Same node ids, different positions: the cache must key on the
        # deployment object, not the ids.
        first = model.loss_rate_batch(inside, [1, 2], [2, 1], 0)
        second = model.loss_rate_batch(outside, [1, 2], [2, 1], 0)
        assert list(first) == [
            model.loss_rate(inside, 1, 2, 0),
            model.loss_rate(inside, 2, 1, 0),
        ]
        assert list(second) == [
            model.loss_rate(outside, 1, 2, 0),
            model.loss_rate(outside, 2, 1, 0),
        ]

    def test_cache_not_pickled(self, deployment):
        model = RegionalLoss(0.3, 0.05)
        model.loss_rate_batch(deployment, [1], [2], 0)
        assert "_rates_cache" in model.__dict__
        clone = pickle.loads(pickle.dumps(model))
        assert "_rates_cache" not in clone.__dict__
        assert clone == model


class _CountingTable(LinkLossTable):
    """A LinkLossTable that counts scalar loss_rate calls."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "scalar_calls", [])

    def loss_rate(self, deployment, sender, receiver, epoch):
        self.scalar_calls.append((sender, receiver))
        return super().loss_rate(deployment, sender, receiver, epoch)


class TestChannelTakesVectorizedPath:
    """The acceptance assertion: no per-edge Python fallback."""

    def _transmissions(self):
        return [
            Transmission(5, (1, 2, 3), words=2, messages=1, attempts=2),
            Transmission(6, (2, 4), words=1, messages=1, attempts=1),
            Transmission(7, (9,), words=3, messages=1, attempts=1),
        ]

    def _table(self):
        return _CountingTable(
            rates={(5, 1): 0.6, (6, 2): 0.3, (7, 9): 0.9}, default=0.2
        )

    def test_transmit_batch_never_calls_scalar(self, deployment):
        table = self._table()
        channel = Channel(deployment, table, seed=3)
        heard = channel.transmit_batch(self._transmissions(), epoch=4)
        assert table.scalar_calls == []
        # ... and the outcomes equal the scalar reference path exactly.
        reference_table = self._table()
        reference = Channel(deployment, reference_table, seed=3)
        expected = transmit_sequential(
            reference, self._transmissions(), epoch=4
        )
        assert heard == expected

    def test_delivery_plan_never_calls_scalar(self, deployment):
        table = self._table()
        channel = Channel(deployment, table, seed=3)
        levels = [self._transmissions()]
        plan = channel.plan_epochs(levels, epochs=[4, 5, 6])
        assert table.scalar_calls == []
        heard = channel.transmit_epochs(levels[0], 5, plan, 0)
        assert table.scalar_calls == []
        reference = Channel(deployment, self._table(), seed=3)
        assert heard == reference.transmit_batch(levels[0], 5)

    def test_composed_plan_never_calls_scalar(self, deployment):
        table = self._table()
        composed = ComposedLoss(base_rates={(5, 1): 0.5}, failure=table)
        channel = Channel(deployment, composed, seed=3)
        plan = channel.plan_epochs([self._transmissions()], epochs=[0, 1])
        channel.transmit_epochs(self._transmissions(), 0, plan, 0)
        assert table.scalar_calls == []


class TestVectorizedPathsByteIdentical:
    CONFIGS = {
        "labdata-TAG": dict(
            scheme="TAG",
            topology="labdata",
            num_sensors=54,
            scenario_seed=7,
            failure="global:0.2",
            aggregate="sum",
            reading="diurnal:7",
            epochs=8,
            converge_epochs=0,
            seed=1,
        ),
        "labdata-SD": dict(
            scheme="SD",
            topology="labdata",
            num_sensors=54,
            scenario_seed=7,
            failure="regional:0.4:0.1",
            aggregate="sum",
            reading="diurnal:7",
            epochs=8,
            converge_epochs=0,
            seed=1,
        ),
        "timeline-TD": dict(
            scheme="TD",
            failure="timeline",
            num_sensors=60,
            aggregate="sum",
            reading="uniform:10:100:0",
            epochs=40,
            start_epoch=90,
            converge_epochs=10,
            seed=0,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_golden_digest(self, name):
        """End-to-end goldens from the seed revision (pre-vectorization):
        the labdata scenario exercises ComposedLoss, the timeline
        FailureSchedule."""
        result = Session().run(RunConfig(**self.CONFIGS[name])).result
        assert_golden(
            f"failures-batch/{name}", goldens.fingerprint(result), run=result
        )
