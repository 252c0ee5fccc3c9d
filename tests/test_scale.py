"""Scale: array node state, retention, result stores.

The load-bearing guarantees, in paper terms:

* **Array state is an implementation detail** — deployments, rings and
  trees are ndarray-backed, and every run is *byte-identical* to the
  dict/networkx representation it replaced: same placement draws, same
  radio graph, same rings, same tree, same per-epoch messages.
  ``topology_goldens.json`` was recorded on the last commit that had the
  dict tier (where both tiers agreed on every digest in it).
* **Retention changes what is kept, not what is computed** — a
  ``stream``/``window:N`` run reports the same RMS error, contributing
  fraction and words/epoch as the retained run; only the in-RAM timeline
  shrinks.
* **Stores round-trip byte-identically** — epochs spilled to ``jsonl``
  or ``sqlite`` reload equal to the retained epochs, and
  ``RunReport.load_epochs`` is the lazy path back.
* **The scale topology holds at 20k nodes** — coordinates, ring levels,
  adjacency and tree parents match the recorded dict-tier build, and churn
  re-rings it without ever building a graph object.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

import topology_goldens

from repro.api import (
    CONFIG_SCHEMA_VERSION,
    EngineOptions,
    RunConfig,
    RunReport,
    config_digest,
    run_config_result,
)
from repro.errors import ConfigurationError
from repro.serialization import from_jsonable, to_jsonable
from repro.storage import (
    MemoryStore,
    count_epochs,
    load_epochs,
    store_names,
    validate_store_spec,
)

BASE = dict(
    aggregate="sum",
    reading="uniform:10:100:0",
    converge_epochs=0,
    seed=0,
)


def _dumps(result) -> str:
    return json.dumps(to_jsonable(result), sort_keys=True)


def _run(config: RunConfig):
    return run_config_result(config)


GOLDENS = topology_goldens.load()

# -- array state vs the recorded dict tier -----------------------------------


@pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
@pytest.mark.parametrize("failure", ["none", "global:0.3"])
def test_packed_is_byte_identical_600(scheme, failure):
    """The 600-node golden scenario: the dict tier's result, bit for bit."""
    config = topology_goldens.scale_run_config(scheme, failure)
    golden = GOLDENS["runs"][f"synthetic/{scheme}/{failure}"]
    assert topology_goldens.run_digest(config) == golden
    # The legacy tier selector is accepted and changes nothing.
    legacy = config.replace(engine=EngineOptions(state="packed"))
    assert legacy == config


def test_packed_identity_on_labdata_conversion():
    """LabData (fixed points + base losses) builds on the same arrays."""
    config = topology_goldens.scale_run_config(
        "TAG", "global:0.2", topology="labdata", num_sensors=54
    )
    golden = GOLDENS["runs"]["labdata/TAG/global:0.2"]
    assert topology_goldens.run_digest(config) == golden


def test_packed_state_validated():
    with pytest.raises(ConfigurationError, match="state"):
        EngineOptions(state="sparse")


@pytest.mark.parametrize(
    "key",
    sorted(key for key in GOLDENS["topology"] if "20000" not in key),
)
def test_topology_matches_recorded_dict_tier(key):
    """Coordinates, levels, CSR adjacency and tree of every family."""
    family, *rest = key.split("/")
    if len(rest) == 2:
        digests = topology_goldens.registered_topology(
            family, int(rest[0]), int(rest[1])
        )
    else:
        digests = topology_goldens.sweep_topology(family, int(rest[0]))
    assert digests == GOLDENS["topology"][key]


# -- the 20k-node scale topology --------------------------------------------


def test_scale_topology_parity_20k():
    """20k-node levels, adjacency and tree parents match the dict build."""
    from repro.network.packed import build_packed_topology

    num = 20_000
    topology = build_packed_topology("synthetic-scale", num, 0)
    assert topology.deployment.num_sensors == num
    digests = topology_goldens.topology_digests(
        topology.deployment, topology.rings, 0
    )
    assert digests == GOLDENS["topology"]["synthetic-scale/20000/0"]


def test_churn_at_20k_never_builds_a_graph(tmp_path):
    """Deaths re-ring 20k nodes on the CSR arrays: no networkx, no guard.

    Runs in a fresh interpreter so ``sys.modules`` is this run's own.
    """
    script = (
        "import sys\n"
        "from repro.api import RunConfig, run_config_result\n"
        "config = RunConfig(scheme='TAG', failure='none',"
        " topology='synthetic-scale', num_sensors=20_000, epochs=4,"
        " aggregate='sum', reading='uniform:10:100:0', converge_epochs=0,"
        " seed=0, start_epoch=0, churn='deaths:2:1500:1', churn_interval=2)\n"
        "result = run_config_result(config)\n"
        "assert 'networkx' not in sys.modules\n"
        "print(*(int(e.extra['alive_sensors']) for e in result.epochs))\n"
        "print(*(e.estimate == e.true_value for e in result.epochs))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src), "PATH": ""},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    alive, exact = done.stdout.splitlines()
    assert alive.split() == ["20000", "20000", "18500", "18500"]
    # Lossless TAG over the repaired tree still sums every live sensor.
    assert exact.split() == ["True"] * 4


def test_packed_20k_short_run_smoke(tmp_path):
    """A 20k-node TAG run completes streamed + spilled, with sane stats."""
    config = RunConfig(
        scheme="TAG",
        failure="none",
        topology="synthetic-scale",
        num_sensors=20_000,
        epochs=2,
        engine=EngineOptions(state="packed"),
        retention="stream",
        storage=f"jsonl:{tmp_path}",
        **BASE,
    )
    result = _run(config)
    assert result.epochs == []  # nothing retained...
    assert result.num_epochs == 2  # ...but the run still counts
    # Lossless TAG sum bills two words per sensor per epoch.
    report = RunReport(config=config, result=result)
    assert report.words_per_epoch() == 40_000
    assert report.rms_error() == 0.0
    assert count_epochs(config.storage, config_digest(config)) == 2


# -- retention ---------------------------------------------------------------


@pytest.fixture(scope="module")
def retained_run():
    config = RunConfig(
        scheme="TAG", failure="global:0.2", num_sensors=40, epochs=6, **BASE
    )
    return config, _run(config)


def test_stream_retention_preserves_aggregates(retained_run):
    config, full = retained_run
    streamed = _run(config.replace(retention="stream"))
    assert streamed.epochs == []
    assert streamed.num_epochs == full.num_epochs == 6
    assert streamed.rms_error() == full.rms_error()
    assert streamed.mean_contributing_fraction(
        40
    ) == full.mean_contributing_fraction(40)
    assert _dumps(streamed.energy) == _dumps(full.energy)


def test_window_retention_keeps_the_tail(retained_run):
    config, full = retained_run
    windowed = _run(config.replace(retention="window:2"))
    assert [epoch.epoch for epoch in windowed.epochs] == [
        epoch.epoch for epoch in full.epochs[-2:]
    ]
    assert _dumps(windowed.epochs[-1]) == _dumps(full.epochs[-1])
    assert windowed.num_epochs == 6
    assert windowed.rms_error() == full.rms_error()


def test_streamed_results_still_fire_on_result(retained_run):
    config, full = retained_run
    from repro.aggregates.sum_ import SumAggregate
    from repro.api import build_scenario

    seen = []
    scenario = build_scenario(config.replace(retention="stream"))
    scheme = scenario.build_scheme(SumAggregate())
    simulator = scenario.build_simulator(scheme, on_result=seen.append)
    simulator.run(6, scenario.source, start_epoch=config.start_epoch)
    assert [epoch.epoch for epoch in seen] == [
        epoch.epoch for epoch in full.epochs
    ]


def test_retention_validation():
    config = RunConfig(
        scheme="TAG", failure="none", num_sensors=20, epochs=2, **BASE
    )
    with pytest.raises(ConfigurationError, match="retention"):
        config.replace(retention="window:0")
    with pytest.raises(ConfigurationError, match="retention"):
        config.replace(retention="ring")


# -- stores ------------------------------------------------------------------


def test_store_registry_and_validation():
    assert {"jsonl", "memory", "sqlite"} <= set(store_names())
    validate_store_spec("memory")
    with pytest.raises(ConfigurationError, match="registered stores"):
        validate_store_spec("mongo:somewhere")
    with pytest.raises(ConfigurationError, match="target"):
        validate_store_spec("jsonl")
    with pytest.raises(ConfigurationError, match="no target"):
        validate_store_spec("memory:what")


@pytest.mark.parametrize("backend", ["memory", "jsonl", "sqlite"])
def test_store_round_trip(backend, tmp_path):
    MemoryStore.clear()
    spec = {
        "memory": "memory",
        "jsonl": f"jsonl:{tmp_path / 'rows'}",
        "sqlite": f"sqlite:{tmp_path / 'rows.db'}",
    }[backend]
    config = RunConfig(
        scheme="TAG", failure="global:0.2", num_sensors=30, epochs=4,
        storage=spec, **BASE,
    )
    result = _run(config)
    digest = config_digest(config)
    reloaded = load_epochs(spec, digest)
    assert count_epochs(spec, digest) == 4
    assert [_dumps(epoch) for epoch in reloaded] == [
        _dumps(epoch) for epoch in result.epochs
    ]


def test_report_load_epochs_reloads_lazily(tmp_path):
    spec = f"sqlite:{tmp_path / 'runs.db'}"
    config = RunConfig(
        scheme="TAG", failure="global:0.2", num_sensors=30, epochs=4,
        retention="stream", storage=spec, **BASE,
    )
    result = _run(config)
    report = RunReport(config=config, result=result)
    assert result.epochs == []
    epochs = report.load_epochs()
    assert [epoch.epoch for epoch in epochs] == [1000, 1001, 1002, 1003]
    # And the reloaded epochs match a fully retained reference run.
    reference = _run(config.replace(retention="all", storage=None))
    assert [_dumps(e) for e in epochs] == [
        _dumps(e) for e in reference.epochs
    ]


# -- config surface ----------------------------------------------------------


def test_scale_fields_version_gate():
    """Scale-tier fields encode only when set, under the one version."""
    plain = RunConfig(
        scheme="TAG", failure="none", num_sensors=20, epochs=2, **BASE
    )
    assert plain.to_jsonable()["version"] == CONFIG_SCHEMA_VERSION
    assert "retention" not in plain.to_jsonable()
    assert "storage" not in plain.to_jsonable()
    for key, upgraded in (
        ("retention", plain.replace(retention="stream")),
        ("storage", plain.replace(storage="memory")),
    ):
        payload = upgraded.to_jsonable()
        assert set(payload) - set(plain.to_jsonable()) == {key}
        assert payload["version"] == CONFIG_SCHEMA_VERSION
        rebuilt = RunConfig.from_jsonable(payload)
        assert rebuilt == upgraded
        assert config_digest(rebuilt) == config_digest(upgraded)
        assert config_digest(rebuilt) != config_digest(plain)
    # The legacy engine keys name the only engine there is: nothing encodes.
    legacy = plain.replace(engine=EngineOptions(backend="pure", state="packed"))
    assert legacy.to_jsonable() == plain.to_jsonable()
    assert config_digest(legacy) == config_digest(plain)


def test_run_report_round_trips_with_stats():
    config = RunConfig(
        scheme="TAG", failure="global:0.2", num_sensors=30, epochs=3,
        retention="stream", **BASE,
    )
    report = RunReport(config=config, result=_run(config))
    rebuilt = from_jsonable(to_jsonable(report))
    assert rebuilt.result.num_epochs == 3
    assert rebuilt.result.rms_error() == report.result.rms_error()
    assert rebuilt.words_per_epoch() == report.words_per_epoch()
