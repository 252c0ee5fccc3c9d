"""The one engine invariant: engine == oracle under any block split.

The epoch-blocked engine (``DeliveryPlan`` -> ``Channel.transmit_epochs``
-> scheme ``run_epochs``, fused kernels where eligible) hoists delivery
draws and local-synopsis construction out of the per-epoch loop — it must
never change a single draw or byte of output. The oracle is the scalar
reference wave (``run_epoch`` over ``Channel.transmit``), which
``use_batch=False`` schemes run through the very same simulator loop. These
tests pin engine and oracle runs to identical delivery sets, transmission
logs, per-node load maps and estimates across seeds, loss rates (including
the 0 and 1 edge cases), retransmission counts, adaptation intervals (0 =
one big block, 1 = a plan per epoch, 10 = the paper's cadence), warm-up
epochs, failure schedules that change loss *inside* a block, every way of
cutting a run into blocks, churn and kill/resume.
"""

from __future__ import annotations

import itertools

import pytest

from repro import serialization
from repro.aggregates.count import CountAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.api import EXPERIMENT_CONFIGS, QueryWorkload
from repro.chaos import Auditor, Checkpointer
from repro.core.adaptation import TDCoarsePolicy, TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import ConstantReadings, UniformReadings
from repro.errors import ConfigurationError, SimulationKilled
from repro.multipath.fm import (
    FMSketch,
    counted_matrix,
    sketches_from_rows,
    words_batch,
)
from repro.network.churn import DynamicMembership, ScheduledChurn
from repro.network.failures import FailureSchedule, GlobalLoss, RegionalLoss
from repro.network.links import Channel, Transmission, transmit_sequential
from repro.network.placement import grid_random_placement
from repro.network.simulator import (
    EpochSimulator,
    gather_reading_block,
    run_epochs_scalar,
)
from repro.query import parse_query

SEEDS = (0, 3)
LOSS_RATES = (0.0, 0.3, 1.0)
ADAPT_INTERVALS = (0, 1, 10)

#: A schedule whose loss changes in the middle of any multi-epoch block
#: starting at epoch 50 (the runs below span epochs 50..61).
MID_BLOCK_SCHEDULE = FailureSchedule(
    [
        (0, GlobalLoss(0.0)),
        (54, RegionalLoss(0.4, 0.1)),
        (58, GlobalLoss(0.8)),
        (61, GlobalLoss(1.0)),
    ]
)


def build_scheme_set(
    scenario, tree, aggregate_factory, attempts=1, use_batch=True
):
    """The four paper schemes, with fresh (stateful) adaptation policies.

    ``use_batch=False`` builds the oracle set: same schemes, scalar wave.
    """
    schemes = {
        "TAG": TagScheme(
            scenario.deployment,
            tree,
            aggregate_factory(),
            attempts=attempts,
            use_batch=use_batch,
        ),
        "SD": SynopsisDiffusionScheme(
            scenario.deployment,
            scenario.rings,
            aggregate_factory(),
            attempts=attempts,
            use_batch=use_batch,
        ),
    }
    for name, level, policy in (
        ("TD-Coarse", 1, TDCoarsePolicy(threshold=0.9)),
        ("TD", 2, TDFinePolicy(threshold=0.9)),
    ):
        graph = TDGraph(
            scenario.rings, tree, initial_modes_by_level(scenario.rings, level)
        )
        schemes[name] = TributaryDeltaScheme(
            scenario.deployment,
            graph,
            aggregate_factory(),
            policy=policy,
            tree_attempts=attempts,
            multipath_attempts=attempts,
            name=name,
            use_batch=use_batch,
        )
    return schemes


def assert_runs_identical(run_engine, run_oracle, context):
    assert run_engine.estimates == run_oracle.estimates, context
    assert [r.epoch for r in run_engine.epochs] == [
        r.epoch for r in run_oracle.epochs
    ], context
    assert [r.log for r in run_engine.epochs] == [
        r.log for r in run_oracle.epochs
    ], context
    assert [r.contributing for r in run_engine.epochs] == [
        r.contributing for r in run_oracle.epochs
    ], context
    assert [r.contributing_estimate for r in run_engine.epochs] == [
        r.contributing_estimate for r in run_oracle.epochs
    ], context


class TestDeliveryPlan:
    """Channel-level: planned outcomes reproduce the scalar sends exactly."""

    @pytest.fixture(scope="class")
    def deployment(self):
        return grid_random_placement(40, seed=3)

    def _transmissions(self, deployment, attempts):
        nodes = deployment.sensor_ids
        return [
            Transmission(
                sender=node,
                receivers=tuple(nodes[(node % 7) : (node % 7) + 4]),
                words=node % 5,
                messages=1 + node % 2,
                attempts=attempts,
            )
            for node in nodes[:25]
        ]

    @pytest.mark.parametrize(
        "seed,loss,attempts",
        list(itertools.product(SEEDS, LOSS_RATES, (1, 3))),
    )
    def test_plan_matches_transmit_batch(self, deployment, seed, loss, attempts):
        """One 6-epoch plan == six one-epoch plans == the scalar sends."""
        scalar = Channel(deployment, GlobalLoss(loss), seed=seed)
        batch = Channel(deployment, GlobalLoss(loss), seed=seed)
        planned = Channel(deployment, GlobalLoss(loss), seed=seed)
        transmissions = self._transmissions(deployment, attempts)
        epochs = list(range(100, 106))
        plan = planned.plan_epochs([transmissions], epochs)
        for epoch in epochs:
            expected = transmit_sequential(scalar, transmissions, epoch)
            assert batch.transmit_batch(transmissions, epoch) == expected
            assert planned.transmit_epochs(transmissions, epoch, plan, 0) == expected
        for channel in (batch, planned):
            assert channel.log == scalar.log
            assert channel.per_node_words() == scalar.per_node_words()
            assert channel.per_node_messages() == scalar.per_node_messages()

    def test_plan_resolves_schedule_per_epoch(self, deployment):
        """A loss change mid-plan is drawn epoch by epoch, like the sends."""
        scalar = Channel(deployment, MID_BLOCK_SCHEDULE, seed=7)
        planned = Channel(deployment, MID_BLOCK_SCHEDULE, seed=7)
        transmissions = self._transmissions(deployment, attempts=2)
        epochs = list(range(50, 64))  # spans all three schedule transitions
        plan = planned.plan_epochs([transmissions], epochs)
        for epoch in epochs:
            assert planned.transmit_epochs(
                transmissions, epoch, plan, 0
            ) == transmit_sequential(scalar, transmissions, epoch)

    def test_stale_plan_rejected_after_model_swap(self, deployment):
        channel = Channel(deployment, GlobalLoss(0.2), seed=1)
        transmissions = self._transmissions(deployment, attempts=1)
        plan = channel.plan_epochs([transmissions], [0, 1])
        # What churn does when it changes the edges a plan was drawn over.
        channel.bump_model_version()
        with pytest.raises(ConfigurationError):
            channel.transmit_epochs(transmissions, 0, plan, 0)

    def test_diverged_schedule_rejected(self, deployment):
        channel = Channel(deployment, GlobalLoss(0.2), seed=1)
        transmissions = self._transmissions(deployment, attempts=1)
        plan = channel.plan_epochs([transmissions], [0, 1])
        altered = list(transmissions)
        altered[0] = Transmission(
            altered[0].sender, altered[0].receivers[:-1], 0, 1, 1
        )
        with pytest.raises(ConfigurationError):
            channel.transmit_epochs(altered, 0, plan, 0)

    def test_epoch_outside_block_rejected(self, deployment):
        channel = Channel(deployment, GlobalLoss(0.2), seed=1)
        transmissions = self._transmissions(deployment, attempts=1)
        plan = channel.plan_epochs([transmissions], [0, 1])
        with pytest.raises(ConfigurationError):
            channel.transmit_epochs(transmissions, 5, plan, 0)


class TestBlockedRuns:
    """Simulator-level: the engine is byte-identical to the scalar oracle."""

    def _compare(
        self, scenario, tree, aggregate, failure, readings, context, *,
        seed, adapt_interval, attempts=1, epochs=12, **run
    ):
        engine = build_scheme_set(scenario, tree, aggregate, attempts)
        oracle = build_scheme_set(
            scenario, tree, aggregate, attempts, use_batch=False
        )
        for name in engine:
            run_engine, run_oracle = (
                EpochSimulator(
                    scenario.deployment,
                    failure,
                    schemes[name],
                    seed=seed,
                    adapt_interval=adapt_interval,
                ).run(epochs, readings, **run)
                for schemes in (engine, oracle)
            )
            assert_runs_identical(run_engine, run_oracle, (name, *context))

    @pytest.mark.parametrize(
        "seed,loss,adapt_interval",
        list(itertools.product(SEEDS, LOSS_RATES, ADAPT_INTERVALS)),
    )
    def test_count_runs_identical(
        self, small_scenario, small_tree, seed, loss, adapt_interval
    ):
        self._compare(
            small_scenario,
            small_tree,
            CountAggregate,
            GlobalLoss(loss),
            ConstantReadings(1.0),
            (seed, loss, adapt_interval),
            seed=seed,
            adapt_interval=adapt_interval,
            start_epoch=50,
            warmup=3,
        )

    @pytest.mark.parametrize("adapt_interval", ADAPT_INTERVALS)
    def test_sum_with_retransmissions(
        self, small_scenario, small_tree, adapt_interval
    ):
        self._compare(
            small_scenario,
            small_tree,
            SumAggregate,
            GlobalLoss(0.25),
            UniformReadings(1, 40, seed=5),
            (adapt_interval,),
            attempts=3,
            epochs=8,
            seed=4,
            adapt_interval=adapt_interval,
            start_epoch=30,
        )

    @pytest.mark.parametrize("adapt_interval", ADAPT_INTERVALS)
    def test_schedule_changes_loss_mid_block(
        self, small_scenario, small_tree, adapt_interval
    ):
        """A FailureSchedule transition inside a block must not leak across
        epochs: every column of the plan is drawn against its own epoch's
        model, exactly like the scalar sends."""
        self._compare(
            small_scenario,
            small_tree,
            SumAggregate,
            MID_BLOCK_SCHEDULE,
            UniformReadings(1, 40, seed=2),
            (adapt_interval,),
            seed=1,
            adapt_interval=adapt_interval,
            start_epoch=50,
            warmup=2,
        )

    def test_adaptation_decisions_identical(self, small_scenario, small_tree):
        """Engine adaptation fires at the same epochs with the same actions."""
        readings = ConstantReadings(1.0)
        results = []
        for use_batch in (True, False):
            scheme = build_scheme_set(
                small_scenario, small_tree, CountAggregate, use_batch=use_batch
            )["TD"]
            EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(0.4),
                scheme,
                seed=6,
                adapt_interval=5,
            ).run(20, readings, warmup=5)
            results.append(
                (scheme.adaptation_log, scheme.control_messages)
            )
        assert results[0] == results[1]

    def test_per_node_load_maps_identical(self, small_scenario, small_tree):
        readings = ConstantReadings(1.0)
        channels = []
        for use_batch in (True, False):
            scheme = SynopsisDiffusionScheme(
                small_scenario.deployment,
                small_scenario.rings,
                CountAggregate(),
                use_batch=use_batch,
            )
            simulator = EpochSimulator(
                small_scenario.deployment,
                GlobalLoss(0.3),
                scheme,
                seed=2,
                adapt_interval=0,
            )
            simulator.run(5, readings)
            channels.append(simulator.channel)
        assert channels[0].per_node_words() == channels[1].per_node_words()
        assert (
            channels[0].per_node_messages() == channels[1].per_node_messages()
        )

    def test_scheme_without_run_epochs_falls_back(self, small_scenario):
        """Plain schemes ride the same loop through ``run_epochs_scalar``."""

        class MinimalScheme:
            name = "minimal"

            def run_epoch(self, epoch, channel, readings):
                from repro.network.simulator import EpochOutcome

                return EpochOutcome(1.0, 1, 1.0)

            def exact_answer(self, epoch, readings):
                return 1.0

            def adapt(self, epoch, outcome):
                pass

        run = EpochSimulator(
            small_scenario.deployment, GlobalLoss(0.3), MinimalScheme()
        ).run(3, ConstantReadings(1.0))
        assert run.estimates == [1.0, 1.0, 1.0]


#: What the schemes aggregate in the block-split cases: single queries as
#: one-liners, plus the 4-query ``multiquery`` workload (one windowed
#: member, one frequent-items member) that no fused kernel serves.
SPLIT_TARGETS = (
    "SELECT count",
    "SELECT sum",
    "multiquery",
    "SELECT avg GROUP BY region:2",
)


def _bind_target(target, deployment):
    """A fresh (aggregate, readings) pair — workloads carry per-run state."""
    source = UniformReadings(10, 100, seed=0)
    if target == "multiquery":
        specs = EXPERIMENT_CONFIGS["multiquery"].queries
        return QueryWorkload(specs=specs).build(source)
    return parse_query(target).build(source, deployment=deployment)


class TestBlockSplitInvariance:
    """Scheme-level: where a run is cut into blocks never shows in results."""

    @pytest.mark.parametrize("loss", (0.0, 0.3))
    @pytest.mark.parametrize("target", SPLIT_TARGETS)
    @pytest.mark.parametrize("name", ("TAG", "SD", "TD"))
    def test_any_split_matches_scalar_loop(
        self, small_scenario, small_tree, name, target, loss
    ):
        epochs = list(range(200, 212))
        outcomes = {}
        for spans in ((12,), (5, 7), (1,) * 12, None):
            aggregate, readings = _bind_target(
                target, small_scenario.deployment
            )
            scheme = build_scheme_set(
                small_scenario,
                small_tree,
                lambda: aggregate,
                use_batch=spans is not None,
            )[name]
            channel = Channel(
                small_scenario.deployment, GlobalLoss(loss), seed=8
            )
            if spans is None:
                pairs = run_epochs_scalar(scheme, epochs, channel, readings)
            else:
                pairs, cursor = [], iter(epochs)
                for span in spans:
                    block = list(itertools.islice(cursor, span))
                    pairs += scheme.run_epochs(block, channel, readings)
            outcomes[spans] = (pairs, channel.per_node_words())
        oracle_pairs, oracle_words = outcomes.pop(None)
        for spans, (pairs, words) in outcomes.items():
            assert pairs == oracle_pairs, spans
            assert words == oracle_words, spans


#: Deaths then rejoins: the rejoins bill repair control traffic at the
#: epoch-20 boundary, so churn exercises the between-block control log too.
REJOIN_CHURN = ScheduledChurn.of(
    deaths=[(10, [5, 7, 9])], joins=[(20, [5, 7, 9])]
)


class TestSimulatorMatrix:
    """Simulator-level: block cuts from adaptation, churn and checkpoints
    all reproduce the oracle run, under a strict auditor."""

    def _run(
        self, scenario, tree, name, adapt_interval, use_batch=True,
        checkpoint=None,
    ):
        scheme = build_scheme_set(
            scenario, tree, SumAggregate, use_batch=use_batch
        )[name]
        auditor = Auditor(strict=True)
        result = EpochSimulator(
            scenario.deployment,
            GlobalLoss(0.2),
            scheme,
            seed=1,
            adapt_interval=adapt_interval,
            membership=DynamicMembership(
                REJOIN_CHURN, scenario.deployment, scenario.rings, tree
            ),
            churn_interval=10,
            auditor=auditor,
            checkpoint=checkpoint,
        ).run(30, UniformReadings(10, 100, seed=1), warmup=2)
        assert auditor.checks["billing-conservation"] > 0
        return serialization.dumps(result)

    @pytest.mark.parametrize("adapt_interval", ADAPT_INTERVALS)
    @pytest.mark.parametrize("name", ("TAG", "SD", "TD"))
    def test_engine_runs_match_oracle(
        self, small_scenario, small_tree, tmp_path, name, adapt_interval
    ):
        args = (small_scenario, small_tree, name, adapt_interval)
        oracle = self._run(*args, use_batch=False)
        assert self._run(*args) == oracle
        with pytest.raises(SimulationKilled):
            self._run(
                *args,
                checkpoint=Checkpointer(tmp_path, interval=8, kill_at=16),
            )
        resumed = self._run(
            *args, checkpoint=Checkpointer(tmp_path, interval=8, resume=True)
        )
        assert resumed == oracle


class TestVectorizedHelpers:
    """The new batch helpers are bit-identical to their scalar twins."""

    def test_counted_matrix_matches_insert_count(self):
        import random

        rng = random.Random(0)
        for _ in range(20):
            num_bitmaps = rng.choice((1, 8, 40))
            size = rng.randrange(0, 30)
            nodes = [rng.randrange(600) for _ in range(size)]
            epochs = [rng.randrange(1000) for _ in range(size)]
            counts = [
                rng.choice((0, 1, 3, 47, 48, 49, 100, 511, 512, 513, 800))
                for _ in range(size)
            ]
            batch = sketches_from_rows(
                counted_matrix(num_bitmaps, ("sum",), counts, nodes, epochs)
            )
            assert len(batch) == size
            for index in range(size):
                scalar = FMSketch(num_bitmaps)
                scalar.insert_count(
                    counts[index], "sum", nodes[index], epochs[index]
                )
                assert batch[index] == scalar

    def test_words_batch_matches_scalar_walk(self):
        import random

        rng = random.Random(1)
        boundary = [0, 1, 2, 3, (1 << 31) - 1, 1 << 31, (1 << 31) + 1,
                    (1 << 32) - 1, (1 << 32) - 2]
        for _ in range(50):
            num_bitmaps = rng.choice((1, 8, 40))
            sketches = []
            for _ in range(4):
                bitmaps = [
                    rng.choice(boundary)
                    if rng.random() < 0.4
                    else rng.randrange(1 << 32)
                    for _ in range(num_bitmaps)
                ]
                sketches.append(FMSketch(num_bitmaps, bitmaps))
            assert words_batch(sketches) == [s.words() for s in sketches]
        # Every bitmap on one boundary word: run and bit length both at an
        # edge of the uint32 / float64 argument.
        uniform = [FMSketch(40, [word] * 40) for word in boundary]
        assert words_batch(uniform) == [s.words() for s in uniform]
        # A batch mixing bitmap counts takes the scalar fallback but stays
        # identical.
        mixed = [
            FMSketch(size, [rng.randrange(1 << 32) for _ in range(size)])
            for size in (8, 40, 8, 1)
        ]
        assert words_batch(mixed) == [s.words() for s in mixed]

    def test_estimate_table_matches_direct_formula(self):
        from repro.multipath.fm import PHI, _KAPPA

        sketch = FMSketch(5)
        for item in range(200):
            sketch.insert("x", item)
        total = sum(sketch._lowest_zero(b) for b in sketch._iter_bitmaps())
        mean_r = total / sketch.num_bitmaps
        corrected = 2.0**mean_r - 2.0 ** (-_KAPPA * mean_r)
        expected = max(0.0, sketch.num_bitmaps / PHI * corrected)
        assert sketch.estimate() == expected

    def test_reading_batch_matches_scalar(self):
        nodes = list(range(0, 90, 2))
        for readings in (ConstantReadings(2.5), UniformReadings(3, 77, seed=9)):
            for epoch in (0, 17, 1000):
                (row,) = gather_reading_block(readings, nodes, [epoch])
                assert row.tolist() == [readings(node, epoch) for node in nodes]

    def test_gather_reading_block_plain_callable(self):
        matrix = gather_reading_block(lambda node, epoch: node + epoch, [1, 2], [10, 11])
        assert matrix.dtype == "float64"
        assert matrix.tolist() == [[11.0, 12.0], [12.0, 13.0]]
