"""Backend registry + fused-kernel parity tests.

The fused array path (``repro.kernels``) must be invisible in results: it
produces bit-identical estimates, synopsis wire words, per-epoch log
counters and per-node energy billing. Three layers pin that:

* registry semantics — explicit name > ``REPRO_KERNEL_BACKEND`` > ``pure``
  default, unknown backends fail loudly, instances memoized by name (the
  backend-keyed cache contract);
* primitive parity — each :class:`KernelBackend` primitive against a
  straightforward scalar reference (``rle_words`` against the proven
  ``_packed_rle_words`` walk);
* scheme parity — every scheme x loss {0, 0.3, 1} x adaptation through the
  declarative config path, fused backend vs the ``object`` engine, plus a
  direct fused-vs-scalar (``use_batch=False``) oracle comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregates.sum_ import SumAggregate
from repro.api import EngineOptions, RunConfig, run_config_result
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import UniformReadings
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import ConfigurationError
from repro.kernels import (
    BACKEND_ENV_VAR,
    backend_names,
    get_backend,
    validate_backend_name,
)
from repro.multipath.fm import (
    FMSketch,
    _correction_table,
    _packed_rle_words,
    _packed_rle_words_cached,
    sketch_to_row,
)
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.tree.construction import build_bushy_tree

#: Fused backends under test.
FUSED_BACKENDS = ["pure"]


# -- registry semantics -----------------------------------------------------


def test_registry_names_and_default(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert backend_names() == ["object", "pure"]
    backend = get_backend()
    assert backend.name == "pure"
    assert backend.fused
    assert not get_backend("object").fused


def test_instances_memoized_by_name():
    assert get_backend("pure") is get_backend("pure")
    assert get_backend("object") is get_backend("object")
    assert get_backend("pure") is not get_backend("object")


def test_unknown_backend_raises():
    with pytest.raises(ConfigurationError):
        validate_backend_name("vulkan")
    with pytest.raises(ConfigurationError):
        get_backend("vulkan")
    with pytest.raises(ConfigurationError):
        EngineOptions(backend="vulkan")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "object")
    assert get_backend().name == "object"
    # An explicit name always beats the environment.
    assert get_backend("pure").name == "pure"
    monkeypatch.setenv(BACKEND_ENV_VAR, "vulkan")
    with pytest.raises(ConfigurationError):
        get_backend()


def test_engine_options_config_round_trip():
    config = RunConfig(
        scheme="SD",
        num_sensors=40,
        epochs=2,
        engine=EngineOptions(backend="object"),
    )
    payload = config.to_jsonable()
    assert payload["version"] == 4
    assert payload["engine"] == {"backend": "object"}
    assert RunConfig.from_jsonable(payload) == config
    # All-default engine normalizes away and keeps the older schema version.
    bare = RunConfig(scheme="SD", num_sensors=40, epochs=2)
    assert "engine" not in bare.to_jsonable()
    assert bare.to_jsonable()["version"] == 2


# -- primitive parity -------------------------------------------------------


@pytest.mark.parametrize("backend_name", FUSED_BACKENDS)
def test_or_reduce_matches_loop(backend_name):
    backend = get_backend(backend_name)
    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 1 << 32, size=(17, 5), dtype=np.uint32)
    starts = np.array([0, 3, 4, 9], dtype=np.int64)
    stops = np.array([3, 4, 9, 17], dtype=np.int64)
    got = backend.or_reduce(matrix, starts)
    for row, (start, stop) in enumerate(zip(starts, stops)):
        expect = np.bitwise_or.reduce(matrix[start:stop], axis=0)
        assert (got[row] == expect).all()
    assert backend.or_reduce(matrix[:0], np.zeros(0, dtype=np.int64)).shape[0] == 0


@pytest.mark.parametrize("backend_name", FUSED_BACKENDS)
def test_scatter_primitives_match_loop(backend_name):
    backend = get_backend(backend_name)
    rng = np.random.default_rng(11)
    dest_or = rng.integers(0, 1 << 32, size=(6, 4), dtype=np.uint32)
    expect_or = dest_or.copy()
    rows = np.array([4, 1, 2], dtype=np.int64)
    values = rng.integers(0, 1 << 32, size=(3, 4), dtype=np.uint32)
    backend.or_into(dest_or, rows, values)
    for row, value in zip(rows, values):
        expect_or[row] |= value
    assert (dest_or == expect_or).all()

    dest_add = rng.integers(0, 100, size=(6, 4)).astype(np.int64)
    expect_add = dest_add.copy()
    dup_rows = np.array([2, 0, 2, 2], dtype=np.int64)  # repeats must stack
    addends = rng.integers(0, 100, size=(4, 4)).astype(np.int64)
    backend.add_into(dest_add, dup_rows, addends)
    for row, value in zip(dup_rows, addends):
        expect_add[row] += value
    assert (dest_add == expect_add).all()


@pytest.mark.parametrize("backend_name", FUSED_BACKENDS)
def test_any_reduce_handles_empty_segments(backend_name):
    backend = get_backend(backend_name)
    rng = np.random.default_rng(13)
    flags = rng.random((9, 6)) < 0.3
    starts = np.array([0, 2, 2, 7], dtype=np.int64)
    stops = np.array([2, 2, 7, 9], dtype=np.int64)
    got = backend.any_reduce(flags, starts, stops)
    for row, (start, stop) in enumerate(zip(starts, stops)):
        expect = flags[start:stop].any(axis=0) if stop > start else np.zeros(6, bool)
        assert (got[row] == expect).all()


@pytest.mark.parametrize("backend_name", FUSED_BACKENDS)
def test_rle_words_matches_scalar_walk(backend_name):
    backend = get_backend(backend_name)
    sketches = []
    for seed in range(40):
        sketch = FMSketch(8)
        for item in range(seed % 5):
            sketch.insert("parity", seed, item)
        if seed % 7 == 0:
            sketch.insert_count(seed * 3, "bulk", seed)
        sketches.append(sketch)
    matrix = np.stack([sketch_to_row(sketch) for sketch in sketches])
    got = backend.rle_words(matrix, 32)
    expect = [sketch.words() for sketch in sketches]
    assert got.tolist() == expect


# -- scheme parity ----------------------------------------------------------


def _run_fields(result):
    rows = []
    for epoch in result.epochs:
        rows.append(
            (
                epoch.epoch,
                epoch.estimate,
                epoch.contributing,
                epoch.contributing_estimate,
                epoch.extra,
                epoch.log.transmissions,
                epoch.log.deliveries,
                epoch.log.drops,
                epoch.log.words_sent,
                epoch.log.messages_sent,
            )
        )
    return rows


@pytest.mark.parametrize("backend_name", FUSED_BACKENDS)
@pytest.mark.parametrize("failure", ["none", "global:0.3", "global:1.0"])
@pytest.mark.parametrize("scheme", ["TAG", "SD", "TD-Coarse", "TD"])
def test_scheme_parity_vs_object_engine(scheme, failure, backend_name):
    """Fused backend vs the object engine: identical results and billing.

    The TD schemes run their registry adaptation cadence (adapt every 10
    epochs after stabilisation), so the comparison covers block splitting
    at adaptation boundaries, not just one long block.
    """
    base = dict(
        scheme=scheme,
        failure=failure,
        aggregate="sum",
        reading="uniform:10:100:0",
        num_sensors=60,
        epochs=12,
        converge_epochs=12,
        seed=3,
    )
    fused = run_config_result(
        RunConfig(engine=EngineOptions(backend=backend_name), **base)
    )
    oracle = run_config_result(
        RunConfig(engine=EngineOptions(backend="object"), **base)
    )
    assert _run_fields(fused) == _run_fields(oracle)
    assert fused.energy.per_node_uj == oracle.energy.per_node_uj


@pytest.mark.parametrize("backend_name", FUSED_BACKENDS)
def test_fused_blocks_match_scalar_oracle(backend_name):
    """run_epochs (fused) vs the untouched ``use_batch=False`` scalar path.

    The scalar per-payload loop is the PR-1 byte-identity oracle; the fused
    block path must reproduce its outcomes, per-epoch logs and per-node
    billing exactly — here for all three scheme families on one lossy
    scenario.
    """
    scenario = make_synthetic_scenario(num_sensors=50, seed=5)
    tree = build_bushy_tree(scenario.rings, seed=5)
    readings = UniformReadings(10, 100, seed=5)
    failure = GlobalLoss(0.3)
    epochs = list(range(8))

    def build(use_batch):
        graph = TDGraph(
            scenario.rings, tree, initial_modes_by_level(scenario.rings, 1)
        )
        return {
            "TAG": TagScheme(
                scenario.deployment,
                tree,
                SumAggregate(),
                use_batch=use_batch,
                kernel_backend=backend_name,
            ),
            "SD": SynopsisDiffusionScheme(
                scenario.deployment,
                scenario.rings,
                SumAggregate(),
                use_batch=use_batch,
                kernel_backend=backend_name,
            ),
            "TD": TributaryDeltaScheme(
                scenario.deployment,
                graph,
                SumAggregate(),
                use_batch=use_batch,
                kernel_backend=backend_name,
            ),
        }

    fused_schemes = build(True)
    scalar_schemes = build(False)
    for name, fused_scheme in fused_schemes.items():
        fused_channel = Channel(scenario.deployment, failure, seed=9)
        fused_rows = fused_scheme.run_epochs(epochs, fused_channel, readings)

        scalar_scheme = scalar_schemes[name]
        scalar_channel = Channel(scenario.deployment, failure, seed=9)
        scalar_rows = []
        for epoch in epochs:
            scalar_channel.reset_log()
            outcome = scalar_scheme.run_epoch(epoch, scalar_channel, readings)
            scalar_rows.append((outcome, scalar_channel.reset_log()))

        assert len(fused_rows) == len(scalar_rows), name
        for (fo, fl), (so, sl) in zip(fused_rows, scalar_rows):
            assert fo == so, name
            assert fl == sl, name
        assert (
            fused_channel._per_node_words == scalar_channel._per_node_words
        ), name
        assert (
            fused_channel._per_node_messages == scalar_channel._per_node_messages
        ), name


# -- backend-keyed caches (bugfix ride-along) -------------------------------


def test_correction_table_normalizes_numpy_keys():
    """numpy-typed shape args must hit the same cache entry as builtin ints.

    Packed matrices hand numpy scalars to the sizing/estimation helpers; a
    numpy-keyed twin entry would fork the shared correction table (and let
    one caller's dtype poison another's lookup). Identity, not equality:
    the same tuple object proves a single cache slot.
    """
    base = _correction_table(40, 32)
    assert _correction_table(np.int64(40), np.uint32(32)) is base


def test_rle_cache_normalizes_numpy_keys():
    sketch = FMSketch(8)
    sketch.insert_count(17, "cache", 1)
    builtin_words = _packed_rle_words(sketch._packed, 8, 32)
    assert builtin_words == sketch.words()
    size_before = _packed_rle_words_cached.cache_info().currsize
    numpy_words = _packed_rle_words(sketch._packed, np.int64(8), np.int64(32))
    assert numpy_words == builtin_words
    assert isinstance(numpy_words, int)
    # Same key as the builtin-int call: no numpy-typed twin entry appeared.
    assert _packed_rle_words_cached.cache_info().currsize == size_before
