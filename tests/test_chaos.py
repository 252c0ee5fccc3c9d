"""Tests for the chaos subsystem: faults, the auditor, checkpoint/resume.

Three coupled contracts:

* **Deterministic fault injection** — every injector draws keyed hashes,
  so a faulted run is identical under the blocked engine and the scalar
  oracle, and a config's ``faults`` field keeps runs pure functions of it.
* **Online invariant auditing** — a strict :class:`~repro.chaos.Auditor`
  stays silent on clean runs (all schemes, churn included) and each
  injector trips its named invariant (true positives, no false positives).
* **Crash-safe checkpoint/resume** — a run killed at any block boundary
  and resumed from its checkpoint produces a byte-identical
  :class:`~repro.network.simulator.RunResult`.
"""

from __future__ import annotations

import pytest

from goldens import assert_golden

from repro import serialization
from repro.aggregates.sum_ import SumAggregate
from repro.api import RunConfig, config_digest, run_config_result
from repro.chaos import (
    Auditor,
    BaseStationCrash,
    Checkpointer,
    ChaosRuntime,
    CompositeFaultPlan,
    CorruptSynopsis,
    DelayControl,
    DuplicateDelivery,
    Partition,
)
from repro.aggregates.count import CountAggregate
from repro.core.adaptation import DampedPolicy, TDCoarsePolicy, TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import UniformReadings
from repro.errors import (
    ConfigurationError,
    PropertyViolation,
    SimulationKilled,
)
from repro.network.churn import DynamicMembership, RandomDeaths, ScheduledChurn
from repro.network.failures import GlobalLoss, NoLoss
from repro.network.simulator import EpochSimulator
from repro.query import WindowedReadings, parse_query
from repro.registry import FAULTS, build_fault_plan

SCHEMES = ("TAG", "SD", "TD")

#: Death-then-rejoin timeline: the rejoins force repair reattachments at
#: the epoch-20 boundary, which is what control-message billing (and so
#: the delay injector) needs to have anything to defer.
REJOIN_CHURN = ScheduledChurn.of(
    deaths=[(10, [5, 7, 9])], joins=[(20, [5, 7, 9])]
)


def _build_scheme(name, scenario, tree, use_batch=True, aggregate=None):
    aggregate = aggregate or SumAggregate()
    if name == "TAG":
        return TagScheme(
            scenario.deployment, tree, aggregate, use_batch=use_batch
        )
    if name == "SD":
        return SynopsisDiffusionScheme(
            scenario.deployment, scenario.rings, aggregate, use_batch=use_batch
        )
    graph = TDGraph(
        scenario.rings, tree, initial_modes_by_level(scenario.rings, 2)
    )
    policy = (
        DampedPolicy(TDCoarsePolicy()) if name == "TD-Coarse" else TDFinePolicy()
    )
    return TributaryDeltaScheme(
        scenario.deployment,
        graph,
        aggregate,
        policy=policy,
        use_batch=use_batch,
        name=name,
    )


def _run(
    scenario,
    tree,
    name,
    *,
    use_batch=True,
    faults=None,
    auditor=None,
    checkpoint=None,
    failure=None,
    churn_model=None,
    epochs=30,
    aggregate=None,
    readings=None,
):
    scheme = _build_scheme(name, scenario, tree, use_batch, aggregate)
    membership = DynamicMembership(
        churn_model or RandomDeaths(epoch=10, count=12, seed=2),
        scenario.deployment,
        scenario.rings,
        tree,
    )
    simulator = EpochSimulator(
        scenario.deployment,
        failure or GlobalLoss(0.2),
        scheme,
        seed=1,
        adapt_interval=10,
        membership=membership,
        faults=faults,
        auditor=auditor,
        checkpoint=checkpoint,
    )
    return simulator.run(epochs, readings or UniformReadings(10, 100, seed=1))


INJECTORS = {
    "corrupt": CorruptSynopsis(0.05, seed=3),
    "duplicate": DuplicateDelivery(0.05, seed=3),
    "delay": DelayControl(3),
    "bscrash": BaseStationCrash(12, 4),
    "partition": Partition(7, 8, 6),
}


class TestFaultSpecs:
    def test_registry_lists_builtins(self):
        from repro.registry import available

        assert set(available()["faults"]) == set(INJECTORS)
        for name in INJECTORS:
            assert name in FAULTS

    def test_none_and_empty_build_no_plan(self):
        assert build_fault_plan(None) is None
        assert build_fault_plan([]) is None

    def test_single_spec_builds_bare_injector(self):
        plan = build_fault_plan("corrupt:0.1:7")
        assert isinstance(plan, CorruptSynopsis)
        assert plan.rate == 0.1 and plan.seed == 7
        assert plan.describe() == "corrupt:0.1:7"

    def test_specs_round_trip_through_describe(self):
        specs = [
            "corrupt:0.05:3",
            "duplicate:0.1:0",
            "delay:3",
            "bscrash:12:4",
            "partition:7:8:6",
        ]
        for spec in specs:
            assert build_fault_plan(spec).describe() == spec

    def test_multiple_specs_compose_in_order(self):
        plan = build_fault_plan(["delay:2", "partition:7:10:5"])
        assert isinstance(plan, CompositeFaultPlan)
        assert plan.describe() == "delay:2+partition:7:10:5"
        assert isinstance(plan.plans[0], DelayControl)
        assert isinstance(plan.plans[1], Partition)

    def test_unknown_and_malformed_specs_fail_actionably(self):
        with pytest.raises(ConfigurationError, match="unknown fault"):
            build_fault_plan("meteor:0.5")
        with pytest.raises(ConfigurationError, match="bad fault spec"):
            build_fault_plan("corrupt:not-a-rate")
        with pytest.raises(ConfigurationError, match="bad fault spec"):
            build_fault_plan("delay")  # missing the required EPOCHS token


class TestFaultDeterminism:
    """Every injector perturbs engine and oracle identically (keyed draws)."""

    @pytest.mark.parametrize("label", sorted(INJECTORS))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_blocked_equals_per_epoch_under_fault(
        self, small_scenario, small_tree, scheme, label
    ):
        plan = INJECTORS[label]
        churn = REJOIN_CHURN if label == "delay" else None
        blocked = _run(
            small_scenario,
            small_tree,
            scheme,
            faults=plan,
            churn_model=churn,
        )
        per_epoch = _run(
            small_scenario,
            small_tree,
            scheme,
            use_batch=False,
            faults=plan,
            churn_model=churn,
        )
        assert serialization.dumps(blocked) == serialization.dumps(per_epoch)

    def test_fault_run_is_repeatable(self, small_scenario, small_tree):
        first = _run(
            small_scenario, small_tree, "SD", faults=CorruptSynopsis(0.1)
        )
        second = _run(
            small_scenario, small_tree, "SD", faults=CorruptSynopsis(0.1)
        )
        assert serialization.dumps(first) == serialization.dumps(second)


class TestAuditorClean:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_strict_audit_passes_clean_runs_with_churn(
        self, small_scenario, small_tree, scheme
    ):
        auditor = Auditor(strict=True)
        _run(small_scenario, small_tree, scheme, auditor=auditor)
        assert auditor.violations == []
        # The auditor actually looked: billing and delivery every run,
        # structure at churn/adapt boundaries.
        assert auditor.checks["billing-conservation"] > 0
        assert auditor.checks["lossless-delivery"] > 0
        assert auditor.checks["membership-consistency"] > 0
        assert auditor.summary().startswith("audit OK")

    def test_sd_count_audits_its_own_synopsis(self, small_scenario, small_tree):
        """Count carries no piggyback: SD audits the Count synopsis that
        counts its contributors, rebuilt with the query's own labels."""
        auditor = Auditor(strict=True)
        _run(
            small_scenario,
            small_tree,
            "SD",
            auditor=auditor,
            aggregate=CountAggregate(),
        )
        assert auditor.checks["fm-or-monotonicity"] > 0
        assert auditor.violations == []

    def test_audited_run_returns_same_result(
        self, small_scenario, small_tree
    ):
        bare = _run(small_scenario, small_tree, "TD")
        audited = _run(
            small_scenario, small_tree, "TD", auditor=Auditor(strict=True)
        )
        assert serialization.dumps(bare) == serialization.dumps(audited)


class TestAuditorTruePositives:
    def _violations(self, scenario, tree, scheme, plan, **kwargs):
        auditor = Auditor(strict=False)
        _run(scenario, tree, scheme, faults=plan, auditor=auditor, **kwargs)
        return auditor.violations

    def test_corrupt_trips_fm_or_monotonicity(
        self, small_scenario, small_tree
    ):
        violations = self._violations(
            small_scenario, small_tree, "SD", CorruptSynopsis(0.05, seed=3)
        )
        assert any(
            v.invariant == "fm-or-monotonicity" for v in violations
        )

    def test_corrupt_trips_fm_or_monotonicity_on_count(
        self, small_scenario, small_tree
    ):
        """A Count payload has no piggybacked sketch: the corruption lands
        in its synopsis, which carries the contributing count."""
        clean = _run(
            small_scenario, small_tree, "SD", aggregate=CountAggregate()
        )
        auditor = Auditor(strict=False)
        corrupted = _run(
            small_scenario,
            small_tree,
            "SD",
            faults=CorruptSynopsis(0.2, seed=3),
            auditor=auditor,
            aggregate=CountAggregate(),
        )
        assert any(
            v.invariant == "fm-or-monotonicity" for v in auditor.violations
        )
        assert serialization.dumps(corrupted) != serialization.dumps(clean)

    def test_duplicate_trips_tree_count_consistency(
        self, small_scenario, small_tree
    ):
        violations = self._violations(
            small_scenario, small_tree, "TAG", DuplicateDelivery(0.05, seed=3)
        )
        assert any(
            v.invariant == "tree-count-consistency" for v in violations
        )

    def test_delay_trips_billing_conservation(
        self, small_scenario, small_tree
    ):
        violations = self._violations(
            small_scenario,
            small_tree,
            "TAG",
            DelayControl(3),
            churn_model=REJOIN_CHURN,
        )
        assert any(
            v.invariant == "billing-conservation" for v in violations
        )

    def test_bscrash_trips_lossless_delivery(
        self, small_scenario, small_tree
    ):
        violations = self._violations(
            small_scenario,
            small_tree,
            "TAG",
            BaseStationCrash(12, 4),
            failure=NoLoss(),
        )
        assert any(v.invariant == "lossless-delivery" for v in violations)

    def test_partition_trips_lossless_delivery(
        self, small_scenario, small_tree
    ):
        violations = self._violations(
            small_scenario,
            small_tree,
            "SD",
            Partition(7, 8, 6),
            failure=NoLoss(),
        )
        assert any(v.invariant == "lossless-delivery" for v in violations)

    def test_strict_auditor_raises_with_context(
        self, small_scenario, small_tree
    ):
        with pytest.raises(PropertyViolation) as excinfo:
            _run(
                small_scenario,
                small_tree,
                "SD",
                faults=CorruptSynopsis(0.05, seed=3),
                auditor=Auditor(strict=True),
            )
        violation = excinfo.value
        assert violation.invariant == "fm-or-monotonicity"
        assert violation.epoch is not None
        assert "fm-or-monotonicity" in str(violation)


class TestCheckpointResume:
    @pytest.mark.parametrize("kill_at", (10, 20))
    @pytest.mark.parametrize("scheme", SCHEMES + ("TD-Coarse",))
    def test_kill_and_resume_is_byte_identical(
        self, small_scenario, small_tree, tmp_path, scheme, kill_at
    ):
        def plain():
            return {}

        def grouped_window():
            # Cubes keyed by node id over windows the checkpoint resumes.
            aggregate, readings = parse_query(
                "SELECT avg GROUP BY region:1 WINDOW 3"
            ).build(
                UniformReadings(10, 100, seed=1),
                deployment=small_scenario.deployment,
            )
            return {"aggregate": aggregate, "readings": readings}

        for query in (plain, grouped_window):
            base = _run(small_scenario, small_tree, scheme, **query())
            directory = tmp_path / f"{scheme}-{kill_at}-{query.__name__}"
            with pytest.raises(SimulationKilled) as excinfo:
                _run(
                    small_scenario,
                    small_tree,
                    scheme,
                    checkpoint=Checkpointer(
                        directory, interval=10, kill_at=kill_at
                    ),
                    **query(),
                )
            assert excinfo.value.offset == kill_at
            resumed = _run(
                small_scenario,
                small_tree,
                scheme,
                checkpoint=Checkpointer(directory, interval=10, resume=True),
                **query(),
            )
            assert serialization.dumps(resumed) == serialization.dumps(base)

    def test_kill_and_resume_with_faults(
        self, small_scenario, small_tree, tmp_path
    ):
        plan = CorruptSynopsis(0.05, seed=3)
        base = _run(small_scenario, small_tree, "SD", faults=plan)
        with pytest.raises(SimulationKilled):
            _run(
                small_scenario,
                small_tree,
                "SD",
                faults=plan,
                checkpoint=Checkpointer(tmp_path, interval=10, kill_at=10),
            )
        resumed = _run(
            small_scenario,
            small_tree,
            "SD",
            faults=plan,
            checkpoint=Checkpointer(tmp_path, interval=10, resume=True),
        )
        assert serialization.dumps(resumed) == serialization.dumps(base)

    def test_checkpointing_is_result_invisible(
        self, small_scenario, small_tree, tmp_path
    ):
        base = _run(small_scenario, small_tree, "TD")
        checkpointed = _run(
            small_scenario,
            small_tree,
            "TD",
            checkpoint=Checkpointer(tmp_path, interval=10),
        )
        assert serialization.dumps(checkpointed) == serialization.dumps(base)
        assert (tmp_path / "checkpoint.json").exists()

    def test_resume_rejects_mismatched_run(
        self, small_scenario, small_tree, tmp_path
    ):
        with pytest.raises(SimulationKilled):
            _run(
                small_scenario,
                small_tree,
                "TAG",
                checkpoint=Checkpointer(tmp_path, interval=10, kill_at=10),
            )
        # A checkpoint from a TAG run must not resume an SD run.
        with pytest.raises(ConfigurationError):
            _run(
                small_scenario,
                small_tree,
                "SD",
                checkpoint=Checkpointer(tmp_path, interval=10, resume=True),
            )

    @pytest.mark.parametrize("damage", ("{not json", "[]"))
    def test_resume_rejects_damaged_checkpoint(
        self, small_scenario, small_tree, tmp_path, capsys, damage
    ):
        """Resume stays loud: a damaged file is named, never run over."""
        from repro.cli import main
        from repro.service.engine import AggregationService

        (tmp_path / "checkpoint.json").write_text(damage)
        resume = Checkpointer(tmp_path, interval=10, resume=True)
        with pytest.raises(ConfigurationError, match="checkpoint.json"):
            _run(small_scenario, small_tree, "TAG", checkpoint=resume)
        config = RunConfig(scheme="TAG", num_sensors=24, converge_epochs=0)
        with pytest.raises(ConfigurationError, match="checkpoint.json"):
            AggregationService(
                config, checkpoint_dir=str(tmp_path), resume=True
            )
        (tmp_path / "config.json").write_text(config.to_json())
        args = ["run-config", str(tmp_path / "config.json"), "--resume"]
        assert main(args + ["--checkpoint-dir", str(tmp_path)]) == 2
        assert "checkpoint.json" in capsys.readouterr().err

    def test_resume_without_checkpoint_runs_fresh(
        self, small_scenario, small_tree, tmp_path
    ):
        base = _run(small_scenario, small_tree, "TAG")
        resumed = _run(
            small_scenario,
            small_tree,
            "TAG",
            checkpoint=Checkpointer(tmp_path, interval=10, resume=True),
        )
        assert serialization.dumps(resumed) == serialization.dumps(base)

    def test_checkpointer_validates_interval(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Checkpointer(tmp_path, interval=0)


class TestRunConfigFaults:
    BASE = dict(
        scheme="TAG",
        num_sensors=40,
        epochs=5,
        converge_epochs=0,
        failure="global:0.2",
    )

    def test_unset_faults_keep_schema_and_digest(self):
        config = RunConfig(**self.BASE)
        assert config.faults is None
        assert "faults" not in config.to_jsonable()
        assert config_digest(config) == config_digest(
            config.replace(faults=[])
        )

    def test_set_faults_bump_schema_to_v5(self):
        # The id predates the single encoding rule: setting the field adds
        # its key, never a different version.
        config = RunConfig(**self.BASE, faults=["corrupt:0.1", "delay:2"])
        payload = config.to_jsonable()
        assert payload["version"] == RunConfig(**self.BASE).to_jsonable()["version"]
        assert payload["faults"] == ["corrupt:0.1", "delay:2"]
        assert RunConfig.from_json(config.to_json()) == config

    def test_empty_faults_normalize_to_none(self):
        config = RunConfig(**self.BASE, faults=[])
        assert config.faults is None
        assert config == RunConfig(**self.BASE)

    def test_faults_change_the_digest(self):
        base = RunConfig(**self.BASE)
        faulted = base.replace(faults=["duplicate:0.3"])
        assert config_digest(base) != config_digest(faulted)

    def test_bad_faults_fail_eagerly(self):
        with pytest.raises(ConfigurationError):
            RunConfig(**self.BASE, faults=["meteor:0.5"])
        with pytest.raises(ConfigurationError, match="wrap a single spec"):
            RunConfig(**self.BASE, faults="corrupt:0.1")
        with pytest.raises(ConfigurationError):
            RunConfig(**self.BASE, faults=[42])

    def test_faulted_config_runs_deterministically(self):
        config = RunConfig(**self.BASE, faults=["duplicate:0.3"])
        first = run_config_result(config)
        second = run_config_result(config)
        assert serialization.dumps(first) == serialization.dumps(second)
        clean = run_config_result(RunConfig(**self.BASE))
        assert serialization.dumps(first) != serialization.dumps(clean)

    def test_run_config_result_takes_chaos_observers(self, tmp_path):
        config = RunConfig(**self.BASE)
        auditor = Auditor(strict=True)
        result = run_config_result(
            config,
            checkpoint=Checkpointer(tmp_path, interval=2),
            audit=auditor,
        )
        assert auditor.violations == []
        assert serialization.dumps(result) == serialization.dumps(
            run_config_result(config)
        )


class TestChaosRuntimeUnset:
    def test_simulator_without_chaos_leaves_channel_untouched(
        self, small_scenario, small_tree
    ):
        scheme = _build_scheme("TAG", small_scenario, small_tree)
        simulator = EpochSimulator(
            small_scenario.deployment, GlobalLoss(0.2), scheme, seed=1
        )
        assert simulator._channel.chaos is None

    def test_duplicate_is_absorbed_by_sd_odi_synopses(
        self, small_scenario, small_tree
    ):
        """The paper's ODI property, observed through the chaos layer:
        duplicated deliveries change nothing on SD (OR-fold absorbs them),
        while TAG double-counts (caught as tree-count-consistency)."""
        clean = _run(small_scenario, small_tree, "SD")
        duplicated = _run(
            small_scenario,
            small_tree,
            "SD",
            faults=DuplicateDelivery(0.3, seed=3),
        )
        assert serialization.dumps(clean) == serialization.dumps(duplicated)

    def test_runtime_defers_and_flushes_control(self, small_scenario):
        from repro.network.links import Channel

        channel = Channel(small_scenario.deployment, GlobalLoss(0.0), seed=1)
        runtime = ChaosRuntime(plan=DelayControl(2))
        runtime.epoch = 5
        channel.chaos = runtime
        channel.account_control(4, words=2, messages=1)
        assert channel.per_node_words()[4] == 0  # billed later, not now
        assert runtime.deferred == [(7, 4, 2, 1)]
        runtime.flush_control(channel, epoch=6)  # not due yet
        assert channel.per_node_words()[4] == 0
        runtime.flush_control(channel, epoch=7)
        assert channel.per_node_words()[4] == 2
        assert runtime.deferred == []


CHURN_SPECS = {"none": "none", "blackout": "blackout:1010:0:0:10:10:1030"}


class TestCheckpointGoldens:
    """The checkpoint file's bytes, pinned: a resumable run writes exactly
    the payload older builds wrote, so their checkpoints still resume."""

    @pytest.mark.parametrize("faults", (None, ("delay:3",)))
    @pytest.mark.parametrize("churn", sorted(CHURN_SPECS))
    @pytest.mark.parametrize("scheme", ("TAG", "SD", "TD-Coarse", "TD"))
    def test_checkpoint_bytes_are_pinned(self, tmp_path, scheme, churn, faults):
        config = RunConfig(
            scheme=scheme,
            num_sensors=60,
            epochs=40,
            failure="global:0.3",
            aggregate="sum",
            reading="uniform:10:100:0",
            churn=CHURN_SPECS[churn],
            faults=faults,
        )
        # Record mode: the delay fault trips a strict auditor's
        # billing-conservation check by design.
        run_config_result(
            config,
            checkpoint=Checkpointer(tmp_path, interval=10),
            audit=Auditor(strict=False),
        )
        # The final file's bytes. The delay fault defers only control bills,
        # all flushed by the last boundary, so each faulted file equals its
        # clean twin.
        assert_golden(
            f"checkpoint/{scheme}/{churn}",
            (tmp_path / "checkpoint.json").read_bytes(),
        )


class TestResumeStatefulReadings:
    """Readings that keep state (a window's segment starts) are saved with
    the run, and a checkpoint lacking their section is refused rather than
    resumed with fresh state."""

    def _windowed(self, scenario, tree, checkpoint=None):
        simulator = EpochSimulator(
            scenario.deployment,
            GlobalLoss(0.2),
            _build_scheme("TAG", scenario, tree),
            seed=3,
            adapt_interval=0,
            checkpoint=checkpoint,
        )
        readings = WindowedReadings(UniformReadings(10, 100, seed=1), 3)
        return simulator.run(30, readings)

    def test_refuses_a_checkpoint_without_the_readings_state(
        self, small_scenario, small_tree, tmp_path
    ):
        with pytest.raises(SimulationKilled):
            self._windowed(
                small_scenario,
                small_tree,
                Checkpointer(tmp_path, interval=10, kill_at=10),
            )
        checkpointer = Checkpointer(tmp_path, interval=10, resume=True)
        payload = checkpointer.load()
        del payload["readings"]  # as written before the readings kept state
        checkpointer.write(payload)
        with pytest.raises(ConfigurationError, match="no readings state"):
            self._windowed(small_scenario, small_tree, checkpointer)
