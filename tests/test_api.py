"""Tests for the unified declarative Session API (config, registries).

The load-bearing suite here is :class:`TestSessionParity`: a config-built
run must be **byte-identical** to hand-wiring the same scenario, scheme
and simulator with the quickstart-style constructors — the API redesign is
pure re-plumbing of construction, never of draws.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    CONFIG_SCHEMA_VERSION,
    EXPERIMENT_CONFIGS,
    EngineOptions,
    RunConfig,
    RunReport,
    Session,
    config_digest,
    describe_experiment,
    expand_grid,
    run_config_result,
)
from repro.core.adaptation import DampedPolicy, TDCoarsePolicy, TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import ConstantReadings
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import ConfigurationError
from repro.network.simulator import EpochSimulator
from repro.registry import (
    AGGREGATES,
    DATASETS,
    FAILURE_MODELS,
    SCHEMES,
    TOPOLOGIES,
    available,
    register_aggregate,
    register_dataset,
    register_failure_model,
    register_scheme,
)
from repro.serialization import dumps, from_jsonable, loads, to_jsonable

QUICK = dict(
    num_sensors=40, epochs=4, converge_epochs=8, scenario_seed=4, seed=1
)


def quick_config(scheme: str, failure: str) -> RunConfig:
    return RunConfig(scheme=scheme, failure=failure, **QUICK)


def hand_wired_result(scheme_name: str, failure_spec: str):
    """The pre-redesign path: explicit constructors, no registries.

    Mirrors the package quickstart and the runner's historical wiring:
    scenario and bushy tree from the scenario seed, scheme classes built
    directly, stabilisation (adapting every epoch) on the scenario seed,
    measurement from epoch 1000 on the run seed.
    """
    from repro.aggregates.count import CountAggregate
    from repro.tree.construction import build_bushy_tree

    scenario = make_synthetic_scenario(
        num_sensors=QUICK["num_sensors"], seed=QUICK["scenario_seed"]
    )
    tree = build_bushy_tree(scenario.rings, seed=QUICK["scenario_seed"])
    aggregate = CountAggregate()
    if scheme_name == "TAG":
        scheme = TagScheme(scenario.deployment, tree, aggregate)
    elif scheme_name == "SD":
        scheme = SynopsisDiffusionScheme(
            scenario.deployment, scenario.rings, aggregate
        )
    else:
        graph = TDGraph(
            scenario.rings, tree, initial_modes_by_level(scenario.rings, 0)
        )
        policy = (
            DampedPolicy(TDCoarsePolicy(threshold=0.9))
            if scheme_name == "TD-Coarse"
            else TDFinePolicy(threshold=0.9)
        )
        scheme = TributaryDeltaScheme(
            scenario.deployment,
            graph,
            aggregate,
            policy=policy,
            name=scheme_name,
        )
    from repro.network.failures import GlobalLoss, NoLoss

    failure = (
        NoLoss()
        if failure_spec == "none"
        else GlobalLoss(float(failure_spec.split(":")[1]))
    )
    readings = ConstantReadings(1.0)
    adaptive = scheme_name in ("TD-Coarse", "TD")
    if adaptive:
        EpochSimulator(
            scenario.deployment,
            failure,
            scheme,
            seed=QUICK["scenario_seed"],
            adapt_interval=1,
        ).run(0, readings, warmup=QUICK["converge_epochs"])
    simulator = EpochSimulator(
        scenario.deployment,
        failure,
        scheme,
        seed=QUICK["seed"],
        adapt_interval=10 if adaptive else 0,
    )
    return simulator.run(QUICK["epochs"], readings, start_epoch=1000)


class TestSessionParity:
    """Config-built runs == hand-wired runs, byte for byte."""

    @pytest.mark.parametrize("failure", ["none", "global:0.3"])
    @pytest.mark.parametrize("scheme", ["TAG", "SD", "TD-Coarse", "TD"])
    def test_byte_identical_to_hand_wired(self, scheme, failure):
        expected = hand_wired_result(scheme, failure)
        report = Session().run(quick_config(scheme, failure))
        assert report.result.estimates == expected.estimates
        assert report.result.energy.per_node_uj == expected.energy.per_node_uj
        assert report.result.energy.total_words == expected.energy.total_words
        assert [e.log.words_sent for e in report.result.epochs] == [
            e.log.words_sent for e in expected.epochs
        ]

    def test_scalar_and_blocked_paths_agree(self):
        config = quick_config("TD", "global:0.3")
        blocked = Session().run(config).result
        scalar = Session().run(config.replace(use_batch=False)).result
        assert blocked.estimates == scalar.estimates


class TestRunConfig:
    def test_round_trips_every_named_experiment(self):
        for name, config in EXPERIMENT_CONFIGS.items():
            assert RunConfig.from_json(config.to_json()) == config, name

    def test_canonical_json_is_stable(self):
        config = quick_config("TAG", "none")
        assert config.to_json() == RunConfig.from_json(config.to_json()).to_json()

    def test_one_encoding_rule(self):
        """type + one version + the fields that differ from their default."""
        assert set(RunConfig(scheme="TAG").to_jsonable()) == {
            "type", "version", "scheme",
        }
        non_default = dict(
            seed=3, failure="global:0.2", topology="labdata", num_sensors=40,
            scenario_seed=2, aggregate="sum", reading="uniform:10:100:0",
            query="SELECT max", queries=[{"name": "s", "aggregate": "sum"}],
            epochs=5, warmup=1, start_epoch=7, adapt_interval=5,
            converge_epochs=9, threshold=0.8, tree_attempts=2,
            use_batch=False, churn="deaths:3:2", churn_interval=4,
            faults=["delay:2"], retention="window:3", storage="memory",
        )
        # ``engine`` is legacy: every value it accepts encodes as absence.
        assert set(non_default) | {"scheme", "engine"} == {
            field.name for field in dataclasses.fields(RunConfig)
        }
        legacy = RunConfig(scheme="TAG", engine={"backend": "pure"})
        assert set(legacy.to_jsonable()) == {"type", "version", "scheme"}
        for name, value in non_default.items():
            config = RunConfig(scheme="TAG", **{name: value})
            payload = config.to_jsonable()
            assert set(payload) == {"type", "version", "scheme", name}
            assert payload["version"] == CONFIG_SCHEMA_VERSION
            assert RunConfig.from_json(config.to_json()) == config

    def test_parent_written_full_field_payload_decodes(self):
        """A v7 payload as the ladder wrote it: every key of its time,
        defaults included."""
        payload = json.loads(
            '{"adapt_interval": 5, "aggregate": "sum", "churn": "deaths:3:2",'
            ' "churn_interval": 4, "converge_epochs": 9, "engine": {"backend":'
            ' "pure", "state": "packed"}, "epochs": 5, "failure":'
            ' "global:0.2", "faults": ["corrupt:0.1", "delay:2"], "group_by":'
            ' null, "num_sensors": 40, "query": null, "reading":'
            ' "uniform:10:100:0", "retention": "window:3", "scenario_seed": 2,'
            ' "scheme": "SD", "seed": 3, "start_epoch": 7, "storage":'
            ' "memory", "threshold": 0.8, "topology": "synthetic",'
            ' "tree_attempts": 2, "type": "run-config", "use_batch": false,'
            ' "version": 7, "warmup": 1}'
        )
        config = RunConfig.from_jsonable(payload)
        assert config == RunConfig(
            scheme="SD", seed=3, failure="global:0.2", num_sensors=40,
            scenario_seed=2, aggregate="sum", reading="uniform:10:100:0",
            epochs=5, warmup=1, start_epoch=7, adapt_interval=5,
            converge_epochs=9, threshold=0.8, tree_attempts=2,
            use_batch=False, churn="deaths:3:2", churn_interval=4,
            faults=["corrupt:0.1", "delay:2"], retention="window:3",
            storage="memory",
        )
        assert config.engine is None
        for key in ("topology", "query", "engine", "group_by"):
            assert key not in config.to_jsonable()
        # A set ``group_by`` names the GROUP BY clause that replaced it.
        payload["group_by"] = "region:1"
        with pytest.raises(ConfigurationError, match="GROUP BY region:1"):
            RunConfig.from_jsonable(payload)

    def test_unknown_keys_are_actionable(self):
        payload = json.loads(quick_config("TAG", "none").to_json())
        payload["epocks"] = 3
        with pytest.raises(ConfigurationError, match="epocks"):
            RunConfig.from_json(json.dumps(payload))

    def test_legacy_engine_state_key(self):
        """``packed`` named what is now the only layout: accepted, dropped,
        never encoded. ``dict`` named a tier that is gone."""
        plain = quick_config("TAG", "none")
        assert EngineOptions(state="packed") == EngineOptions()
        for legacy in (EngineOptions(state="packed"), {"state": "packed"}):
            config = plain.replace(engine=legacy)
            assert config == plain and config.engine is None
            assert "engine" not in config.to_jsonable()
            assert config_digest(config) == config_digest(plain)
        payload = json.loads(plain.to_json())
        payload["engine"] = {"state": "packed"}
        assert RunConfig.from_jsonable(payload) == plain
        payload["engine"] = {"state": "packed", "backend": "pure"}
        assert RunConfig.from_jsonable(payload) == plain
        with pytest.raises(ConfigurationError, match="'dict' is gone"):
            EngineOptions(state="dict")
        payload["engine"] = {"state": "dict"}
        with pytest.raises(ConfigurationError, match="'dict' is gone"):
            RunConfig.from_jsonable(payload)
        with pytest.raises(ConfigurationError, match="only accepts 'packed'"):
            EngineOptions(state="sparse")

    def test_legacy_engine_backend_key(self):
        """``pure`` named the fused kernels, now the only ones: accepted,
        dropped, never encoded — only configs that set it change digest.
        ``object`` forced the wave a kernel's own refusal now picks."""
        plain = quick_config("SD", "none")
        assert EngineOptions(backend="pure") == EngineOptions()
        for legacy in (
            EngineOptions(backend="pure"), {"backend": "pure"}, EngineOptions()
        ):
            config = plain.replace(engine=legacy)
            assert config == plain and config.engine is None
            assert "engine" not in config.to_jsonable()
            assert config_digest(config) == config_digest(plain)
        payload = json.loads(plain.to_json())
        payload["engine"] = {"backend": "pure"}
        assert RunConfig.from_jsonable(payload) == plain
        payload["engine"] = {"backend": "object"}
        with pytest.raises(ConfigurationError, match="use_batch=false") as gone:
            RunConfig.from_jsonable(payload)
        assert "scheme.engine_path" in str(gone.value)
        with pytest.raises(ConfigurationError, match="use_batch=false"):
            EngineOptions(backend="object")
        for unknown in ("vulkan", 3, ["pure"]):
            with pytest.raises(ConfigurationError, match="only accepts 'pure'"):
                EngineOptions(backend=unknown)
            payload["engine"] = {"backend": unknown}
            with pytest.raises(ConfigurationError, match="only accepts 'pure'"):
                RunConfig.from_jsonable(payload)

    def test_legacy_use_blocked_key(self):
        """Pre-PR-13 payloads still decode; the dead value says where to go."""
        config = quick_config("TAG", "none")
        payload = json.loads(config.to_json())
        assert "use_blocked" not in payload
        payload["use_blocked"] = True
        assert RunConfig.from_jsonable(payload) == config
        for dead in (False, "false", None):
            payload["use_blocked"] = dead
            with pytest.raises(ConfigurationError, match="use_batch=false"):
                RunConfig.from_jsonable(payload)

    def test_missing_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="scheme"):
            RunConfig.from_jsonable({"epochs": 3})

    def test_wrongly_typed_values_are_actionable(self):
        for key, value in (
            ("epochs", "2"),
            ("threshold", "0.9"),
            ("use_batch", "true"),
            ("scheme", 7),
            ("query", 3),
        ):
            payload = {"scheme": "TAG", key: value}
            with pytest.raises(ConfigurationError, match=key):
                RunConfig.from_jsonable(payload)
        # Whole-number floats for float fields are fine (JSON writers
        # often emit 1 for 1.0).
        config = RunConfig.from_jsonable({"scheme": "TAG", "threshold": 1})
        assert config.threshold == 1.0

    def test_newer_schema_version_rejected(self):
        payload = json.loads(quick_config("TAG", "none").to_json())
        payload["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            RunConfig.from_json(json.dumps(payload))

    def test_unknown_names_are_actionable(self):
        with pytest.raises(ConfigurationError, match="available"):
            RunConfig(scheme="nope")
        with pytest.raises(ConfigurationError, match="available"):
            RunConfig(scheme="TAG", aggregate="median")
        with pytest.raises(ConfigurationError, match="available"):
            RunConfig(scheme="TAG", topology="mars")
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="TAG", failure="global")
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="TAG", reading="lorem")

    def test_validation_bounds(self):
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="TAG", epochs=-1)
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="TAG", threshold=0.0)
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="TAG", tree_attempts=0)

    def test_query_replaces_aggregate(self):
        config = RunConfig(
            scheme="TAG",
            query="SELECT count WHERE value >= 1",
            aggregate="count",
            **QUICK,
        )
        report = Session().run(config)
        assert report.result.estimates  # executed through the query layer
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="TAG", query="SELECT nothing")

    def test_digest_depends_on_fields(self):
        a = quick_config("TAG", "none")
        b = quick_config("TAG", "global:0.3")
        assert config_digest(a) == config_digest(quick_config("TAG", "none"))
        assert config_digest(a) != config_digest(b)

    def test_serialization_codec_round_trip(self):
        config = quick_config("SD", "global:0.3")
        assert loads(dumps(config)) == config
        payload = to_jsonable(config)
        assert payload["type"] == "run-config"
        assert from_jsonable(payload) == config

    def test_run_report_codec_round_trip(self):
        config = quick_config("TAG", "none")
        report = Session().run(config)
        decoded = loads(dumps(report))
        assert isinstance(decoded, RunReport)
        assert decoded.config == config
        assert decoded.result.estimates == report.result.estimates


class TestDescribe:
    def test_every_named_experiment_describes(self):
        for name in EXPERIMENT_CONFIGS:
            config = describe_experiment(name)
            assert RunConfig.from_json(config.to_json()) == config

    def test_unknown_experiment_is_actionable(self):
        with pytest.raises(ConfigurationError, match="describable"):
            describe_experiment("fig99")


class TestRegistries:
    def test_builtins_discoverable(self):
        names = available()
        assert names["schemes"] == ("TAG", "SD", "TD-Coarse", "TD")
        for aggregate in (
            "count", "sum", "avg", "min", "max", "sample",
            "distinct", "moments",
        ):
            assert aggregate in names["aggregates"]
        assert {"none", "global", "regional", "timeline"} <= set(
            names["failure_models"]
        )
        assert {"synthetic", "labdata"} <= set(names["topologies"])
        assert {"constant", "uniform", "diurnal"} <= set(names["datasets"])

    def test_register_scheme_end_to_end(self):
        @register_scheme("TAG-echo")
        def build_echo(context):
            return TagScheme(
                context.deployment,
                context.tree,
                context.aggregate,
                attempts=context.tree_attempts,
                name="TAG-echo",
                use_batch=context.use_batch,
            )

        try:
            config = quick_config("TAG-echo", "global:0.3")
            report = Session().run(config)
            baseline = Session().run(quick_config("TAG", "global:0.3"))
            # Same wiring, same draws: the registered clone is TAG.
            assert report.result.estimates == baseline.result.estimates
        finally:
            SCHEMES.unregister("TAG-echo")
        with pytest.raises(ConfigurationError):
            quick_config("TAG-echo", "none")

    def test_register_aggregate_reaches_query_and_config(self):
        from repro.aggregates.count import CountAggregate
        from repro.query import parse_query

        register_aggregate("headcount")(CountAggregate)
        try:
            assert parse_query("SELECT headcount").select == "headcount"
            config = RunConfig(scheme="TAG", aggregate="headcount", **QUICK)
            report = Session().run(config)
            assert report.result.estimates
        finally:
            AGGREGATES.unregister("headcount")
        with pytest.raises(ConfigurationError):
            parse_query("SELECT headcount")

    def test_register_failure_model_and_dataset(self):
        from repro.network.failures import GlobalLoss

        @register_failure_model("half")
        def build_half():
            return GlobalLoss(0.5)

        @register_dataset("twos")
        def build_twos():
            return ConstantReadings(2.0)

        try:
            config = RunConfig(
                scheme="TAG", failure="half", reading="twos", **QUICK
            )
            report = Session().run(config)
            reference = Session().run(
                RunConfig(
                    scheme="TAG",
                    failure="global:0.5",
                    reading="constant:2.0",
                    **QUICK,
                )
            )
            assert report.result.estimates == reference.result.estimates
        finally:
            FAILURE_MODELS.unregister("half")
            DATASETS.unregister("twos")

    def test_resolution_errors_list_available(self):
        with pytest.raises(ConfigurationError, match="TAG"):
            SCHEMES.resolve("bogus")
        with pytest.raises(ConfigurationError, match="synthetic"):
            TOPOLOGIES.resolve("bogus")


class TestSession:
    def test_cache_round_trip(self, tmp_path):
        config = quick_config("TAG", "global:0.3")
        first = Session(cache_dir=tmp_path).run(config)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["config"]["scheme"] == "TAG"
        # A cached re-run must not recompute: poison the executor.
        import repro.api as api_module

        original = api_module.run_config_result
        api_module.run_config_result = None  # would TypeError on a miss
        try:
            second = Session(cache_dir=tmp_path).run(config)
        finally:
            api_module.run_config_result = original
        assert second.result.estimates == first.result.estimates
        assert (
            second.result.energy.per_node_uj == first.result.energy.per_node_uj
        )

    def test_unusable_cache_entries_recompute(self, tmp_path):
        config = quick_config("TAG", "none")
        from repro.api import config_digest

        path = tmp_path / f"{config_digest(config)}.json"
        baseline = Session().run(config)
        for payload in (
            "{not json",
            '{"config": {}}',  # no result key
            json.dumps(
                {"result": {"type": "run-result", "version": 99}}
            ),  # from a newer writer: ConfigurationError inside the codec
        ):
            path.write_text(payload)
            report = Session(cache_dir=tmp_path).run(config)
            assert report.result.estimates == baseline.result.estimates

    def test_labdata_report_uses_actual_deployment_size(self):
        config = RunConfig(
            scheme="TAG",
            topology="labdata",
            scenario_seed=7,
            reading="diurnal:7",
            aggregate="sum",
            epochs=1,
            converge_epochs=0,
            # Deliberately wrong: the fixed floor plan has 54 motes.
            num_sensors=600,
        )
        report = Session().run(config)
        assert report.num_sensors() == 54
        assert 0.0 <= report.mean_contributing_fraction() <= 1.0

    def test_sweep_explicit_configs(self):
        configs = [
            quick_config("TAG", "none"),
            quick_config("SD", "none"),
        ]
        report = Session().sweep(configs)
        assert len(report.results) == 2
        assert set(report.rms_by_scheme()) == {"TAG", "SD"}
        assert "rms_error" in report.render()

    def test_sweep_grid_expansion(self):
        base = quick_config("TAG", "none")
        report = Session().sweep(
            {"scheme": ["TAG", "SD"], "failure": ["none", "global:0.3"]},
            base=base,
        )
        labels = [(c.scheme, c.failure) for c in report.configs]
        assert labels == [
            ("TAG", "none"),
            ("TAG", "global:0.3"),
            ("SD", "none"),
            ("SD", "global:0.3"),
        ]

    def test_sweep_grid_needs_base(self):
        with pytest.raises(ConfigurationError, match="base"):
            Session().sweep({"scheme": ["TAG"]})

    def test_sweep_matches_individual_runs(self):
        configs = [
            quick_config("TAG", "global:0.3"),
            quick_config("TD", "global:0.3"),
        ]
        swept = Session().sweep(configs)
        for config, result in swept.rows():
            assert (
                result.estimates
                == run_config_result(config).estimates
            )

    def test_expand_grid_rejects_scalar_axis(self):
        with pytest.raises(ConfigurationError, match="axis"):
            expand_grid(quick_config("TAG", "none"), scheme="TAG")
