"""The memory-lean scale tier: packed state, retention, result stores.

The load-bearing guarantees, in paper terms:

* **Packed state is an implementation detail** — a run under
  ``engine.state = "packed"`` (ndarray node state behind the dict-shaped
  API) is *byte-identical* to the dict-path run for every scheme and loss
  level: same placement draws, same radio graph, same rings, same tree,
  same per-epoch messages. The dict path stays as the oracle.
* **Retention changes what is kept, not what is computed** — a
  ``stream``/``window:N`` run reports the same RMS error, contributing
  fraction and words/epoch as the retained run; only the in-RAM timeline
  shrinks.
* **Stores round-trip byte-identically** — epochs spilled to ``jsonl``
  or ``sqlite`` reload equal to the retained epochs, and
  ``RunReport.load_epochs`` is the lazy path back.
* **The scale topology holds at 20k nodes** — the packed ring builder
  and the dict builder agree on every level and every tree parent.
"""

from __future__ import annotations

import json

import pytest

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


# -- packed-vs-dict byte identity -------------------------------------------


@pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
@pytest.mark.parametrize("failure", ["none", "global:0.3"])
def test_packed_is_byte_identical_600(scheme, failure):
    """The 600-node golden scenario: packed == dict, bit for bit."""
    base = dict(
        scheme=scheme, failure=failure, num_sensors=600, epochs=3, **BASE
    )
    plain = _run(RunConfig(**base))
    packed = _run(RunConfig(engine=EngineOptions(state="packed"), **base))
    assert _dumps(plain) == _dumps(packed)


def test_packed_identity_on_labdata_conversion():
    """Topologies without a native packed builder go through pack_topology."""
    base = dict(
        scheme="TAG", failure="global:0.2", topology="labdata",
        num_sensors=54, epochs=3, **BASE,
    )
    plain = _run(RunConfig(**base))
    packed = _run(RunConfig(engine=EngineOptions(state="packed"), **base))
    assert _dumps(plain) == _dumps(packed)


def test_packed_state_validated():
    with pytest.raises(ConfigurationError, match="state"):
        EngineOptions(state="sparse")


# -- the 20k-node scale topology --------------------------------------------


def test_scale_topology_parity_20k():
    """Packed and dict builders agree on 20k-node levels and parents."""
    from repro.datasets.synthetic import make_scale_scenario
    from repro.network.packed import build_packed_topology
    from repro.tree.construction import build_bushy_tree

    num = 20_000
    scenario = make_scale_scenario(num, seed=0)
    packed = build_packed_topology("synthetic-scale", num, 0)
    assert packed is not None
    assert packed.deployment.num_sensors == num
    for node in (0, 1, num // 2, num):
        assert packed.rings.level(node) == scenario.rings.level(node)
    assert all(
        packed.rings.level(node) == scenario.rings.level(node)
        for node in scenario.deployment.node_ids
    )
    dict_tree = build_bushy_tree(scenario.rings, seed=0)
    packed_tree = build_bushy_tree(packed.rings, seed=0)
    assert dict_tree.parents == packed_tree.parents


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
        ("engine", plain.replace(engine=EngineOptions(state="packed"))),
    ):
        payload = upgraded.to_jsonable()
        assert set(payload) - set(plain.to_jsonable()) == {key}
        assert payload["version"] == CONFIG_SCHEMA_VERSION
        rebuilt = RunConfig.from_jsonable(payload)
        assert rebuilt == upgraded
        assert config_digest(rebuilt) == config_digest(upgraded)
        assert config_digest(rebuilt) != config_digest(plain)


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
