"""Fused-kernel parity tests.

The fused array path (``repro.kernels``) must be invisible in results: it
produces bit-identical estimates, synopsis wire words, per-epoch log
counters and per-node energy billing. Three layers pin that:

* primitive parity — the kernels' scatter, segment and sizing passes
  against a straightforward scalar reference (``rle_words_rows`` against
  the proven ``_packed_rle_words`` walk);
* scheme parity — every scheme x loss {0, 0.3, 1} x adaptation through the
  declarative config path, fused vs the scalar (``use_batch=False``)
  oracle, the one object-payload engine;
* the fused Tributary-Delta wave — fused == scalar oracle on whole epoch
  records across loss models, retransmissions, adaptation cadences, graph
  shapes and block splits; Property 1/2 after every adaptation step of a
  fused run; the two engines ``engine_path`` names (a block with chaos
  attached runs the oracle); and the paper's Fig-2 / Fig-6 claims at
  reduced size through the fused path.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.average import AverageAggregate
from repro.aggregates.count import CountAggregate
from repro.aggregates.minmax import MaxAggregate, MinAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.aggregates.workload import WorkloadAggregate, WorkloadReadings
from repro.api import (
    EXPERIMENT_CONFIGS,
    QueryWorkload,
    RunConfig,
    run_config_result,
)
from repro.chaos import Auditor
from repro.chaos.faults import ChaosRuntime
from repro.core.adaptation import DampedPolicy, TDCoarsePolicy, TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.modes import Mode
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.core.validation import audit, topology_of_td_graph
from repro.core.wave import WaveLayout
from repro.datasets.streams import UniformReadings
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import PropertyViolation
from repro.kernels import get_backend
from repro.kernels import sd as sd_kernel
from repro.multipath.fm import (
    FMSketch,
    _correction_table,
    _packed_rle_words,
    _packed_rle_words_cached,
    rle_words_rows,
    rle_words_sections,
    sketch_to_row,
)
from repro.network.churn import DynamicMembership, ScheduledChurn
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.network.placement import BASE_STATION
from repro.network.simulator import EpochSimulator, run_epochs_scalar
from repro.query import parse_query
from repro.registry import build_aggregate, build_failure_model
from repro.tree.construction import build_bushy_tree


def test_run_records_name_the_numpy_kernels():
    assert get_backend().name == "pure"


# -- primitive parity -------------------------------------------------------


def test_or_sorted_matches_the_reduceat_grouping():
    """Rank-by-rank OR-scatter ≡ one segmented ``reduceat`` per key group."""
    rng = np.random.default_rng(7)
    for fan_in in range(1, 17):
        groups = rng.integers(1, fan_in + 1, size=9)
        keys = np.repeat(rng.permutation(12)[:9], groups)
        values = rng.integers(0, 1 << 32, size=(len(keys), 5), dtype=np.uint32)
        dest = rng.integers(0, 1 << 32, size=(12, 5), dtype=np.uint32)
        expect = dest.copy()
        starts = np.concatenate(([0], np.cumsum(groups)[:-1]))
        expect[keys[starts]] |= np.bitwise_or.reduceat(values, starts, axis=0)
        sd_kernel.or_sorted(dest, keys, values)
        assert (dest == expect).all(), fan_in
        # ``rows`` reads the values through an index instead of in order.
        shuffled = rng.permutation(len(keys))
        inverse = np.argsort(shuffled)
        gathered = dest.copy()
        sd_kernel.or_sorted(gathered, keys, values[shuffled], inverse)
        assert (gathered == expect).all(), fan_in
    empty = dest.copy()
    sd_kernel.or_sorted(empty, keys[:0], values[:0], np.zeros(0, dtype=np.int64))
    assert (empty == dest).all()


def test_scatter_primitives_match_loop():
    """The kernels' two scatters: OR over unique rows, and ``np.add.at``
    over repeated ones (a fancy-indexed ``+=`` would drop the repeats)."""
    rng = np.random.default_rng(11)
    dest_or = rng.integers(0, 1 << 32, size=(6, 4), dtype=np.uint32)
    expect_or = dest_or.copy()
    rows = np.array([4, 1, 2], dtype=np.int64)
    values = rng.integers(0, 1 << 32, size=(3, 4), dtype=np.uint32)
    sd_kernel.or_sorted(dest_or, rows, values)
    for row, value in zip(rows, values):
        expect_or[row] |= value
    assert (dest_or == expect_or).all()

    dest_add = rng.integers(0, 100, size=(6, 4)).astype(np.int64)
    expect_add = dest_add.copy()
    dup_rows = np.array([2, 0, 2, 2], dtype=np.int64)  # repeats must stack
    addends = rng.integers(0, 100, size=(4, 4)).astype(np.int64)
    np.add.at(dest_add, dup_rows, addends)
    for row, value in zip(dup_rows, addends):
        expect_add[row] += value
    assert (dest_add == expect_add).all()


def test_any_reduce_handles_empty_segments():
    rng = np.random.default_rng(13)
    flags = rng.random((9, 6)) < 0.3
    starts = np.array([0, 2, 2, 7], dtype=np.int64)
    stops = np.array([2, 2, 7, 9], dtype=np.int64)
    got = sd_kernel._any_reduce(flags, starts, stops)
    for row, (start, stop) in enumerate(zip(starts, stops)):
        expect = flags[start:stop].any(axis=0) if stop > start else np.zeros(6, bool)
        assert (got[row] == expect).all()


def test_rle_words_matches_scalar_walk():
    sketches = []
    for seed in range(40):
        sketch = FMSketch(8)
        for item in range(seed % 5):
            sketch.insert("parity", seed, item)
        if seed % 7 == 0:
            sketch.insert_count(seed * 3, "bulk", seed)
        sketches.append(sketch)
    matrix = np.stack([sketch_to_row(sketch) for sketch in sketches])
    got = rle_words_rows(matrix)
    expect = [sketch.words() for sketch in sketches]
    assert got.tolist() == expect


#: uint32 words where a run length or a bit length sits on a boundary.
_BOUNDARY_WORDS = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]


def test_rle_words_matches_the_walk_on_boundary_words():
    """``bitwise_count`` runs and smeared-popcount bit lengths at the word
    edges."""
    rng = np.random.default_rng(17)
    rows = [[word] * 8 for word in _BOUNDARY_WORDS]
    rows += rng.choice(_BOUNDARY_WORDS, size=(40, 8)).tolist()
    rows += rng.integers(0, 1 << 32, size=(40, 8)).tolist()
    # Solid low runs with random fringes: the shapes real sketches have.
    runs = rng.integers(0, 33, size=(40, 8))
    fringes = rng.integers(0, 1 << 32, size=(40, 8)) << (runs + 1)
    rows += (((1 << runs) - 1 | fringes) & 0xFFFFFFFF).tolist()
    matrix = np.array(rows, dtype=np.uint32)
    expect = [
        _packed_rle_words(
            sum(int(word) << (32 * index) for index, word in enumerate(row)), 8
        )
        for row in rows
    ]
    assert rle_words_rows(matrix).tolist() == expect
    assert rle_words_rows(matrix[:0]).tolist() == []


_WORDS = st.sampled_from(_BOUNDARY_WORDS) | st.integers(0, (1 << 32) - 1)


@settings(max_examples=200, deadline=None)
@given(
    sections=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    rows=st.integers(0, 6),
    data=st.data(),
)
def test_rle_words_sections_is_the_sum_of_per_section_sizes(sections, rows, data):
    """One sizing pass over a row of sections equals sizing each section on
    its own (each with its one-word ceiling), for any leading shape."""
    width = sum(sections)
    words = data.draw(st.lists(_WORDS, min_size=rows * width, max_size=rows * width))
    matrix = np.array(words, dtype=np.uint32).reshape(rows, width)
    expect = np.zeros(rows, dtype=np.int64)
    start = 0
    for bitmaps in sections:
        expect += rle_words_rows(matrix[:, start : start + bitmaps])
        start += bitmaps
    assert rle_words_sections(matrix, sections).tolist() == expect.tolist()
    assert rle_words_sections(matrix[None], sections).tolist() == [expect.tolist()]


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


@pytest.mark.parametrize("failure", ["none", "global:0.3", "global:1.0"])
@pytest.mark.parametrize("scheme", ["TAG", "SD", "TD-Coarse", "TD"])
def test_scheme_parity_vs_object_engine(scheme, failure):
    """Fused kernels vs the scalar oracle: identical results and billing.

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
    fused = run_config_result(RunConfig(**base))
    oracle = run_config_result(RunConfig(**base, use_batch=False))
    assert _run_fields(fused) == _run_fields(oracle)
    assert fused.energy.per_node_uj == oracle.energy.per_node_uj


def test_fused_blocks_match_scalar_oracle():
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
            ),
            "SD": SynopsisDiffusionScheme(
                scenario.deployment,
                scenario.rings,
                SumAggregate(),
                use_batch=use_batch,
            ),
            "TD": TributaryDeltaScheme(
                scenario.deployment,
                graph,
                SumAggregate(),
                use_batch=use_batch,
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


# -- sizing caches ----------------------------------------------------------


def test_correction_table_normalizes_numpy_keys():
    """numpy-typed shape args must hit the same cache entry as builtin ints.

    Packed matrices hand numpy scalars to the sizing/estimation helpers; a
    numpy-keyed twin entry would fork the shared correction table (and let
    one caller's dtype poison another's lookup). Identity, not equality:
    the same tuple object proves a single cache slot.
    """
    base = _correction_table(40)
    assert _correction_table(np.int64(40)) is base


def test_rle_cache_normalizes_numpy_keys():
    sketch = FMSketch(8)
    sketch.insert_count(17, "cache", 1)
    builtin_words = _packed_rle_words(sketch._packed, 8)
    assert builtin_words == sketch.words()
    size_before = _packed_rle_words_cached.cache_info().currsize
    numpy_words = _packed_rle_words(sketch._packed, np.int64(8))
    assert numpy_words == builtin_words
    assert isinstance(numpy_words, int)
    # Same key as the builtin-int call: no numpy-typed twin entry appeared.
    assert _packed_rle_words_cached.cache_info().currsize == size_before


# -- the fused Tributary-Delta wave -----------------------------------------
# A TD block takes one of two engines: ``fused``, or the scalar oracle —
# ``oracle`` under ``use_batch=False``, ``object`` when a blocked run has
# chaos attached.

TD_POLICIES = {
    "TD-Coarse": lambda: DampedPolicy(TDCoarsePolicy(threshold=0.9)),
    "TD": lambda: TDFinePolicy(threshold=0.9),
}

AGGREGATES = {"count": CountAggregate, "sum": SumAggregate}

#: What ``engine_path`` reads after a block on each engine.
ENGINE_PATHS = {
    "fused": "fused",
    "object": "object: chaos attached",
    "oracle": "object: use_batch=False",
}

#: Loss 0 / 0.3 / 1 plus the Fig-6 schedule; runs start at epoch 95 so the
#: ``timeline`` crosses its quiet -> regional boundary inside a block.
TD_FAILURES = ("global:0.0", "global:0.3", "global:1.0", "timeline")

REJOIN_CHURN = ScheduledChurn.of(
    deaths=[(10, [5, 7, 9])], joins=[(20, [5, 7, 9])]
)


@pytest.fixture(scope="module")
def deep_scenario():
    """60 sensors over eight ring levels: tributaries several hops long and
    a delta with interior and tip nodes."""
    scenario = make_synthetic_scenario(num_sensors=60, radio_range=4.0, seed=3)
    assert scenario.rings.depth == 8
    return scenario


@pytest.fixture(scope="module")
def deep_tree(deep_scenario):
    return build_bushy_tree(deep_scenario.rings, seed=3)


def _td_scheme(scenario, tree, engine, policy=None, aggregate="sum",
               attempts=1, delta_level=2):
    graph = TDGraph(
        scenario.rings, tree, initial_modes_by_level(scenario.rings, delta_level)
    )
    return TributaryDeltaScheme(
        scenario.deployment,
        graph,
        AGGREGATES[aggregate](),
        policy=TD_POLICIES[policy]() if policy else None,
        tree_attempts=attempts,
        multipath_attempts=attempts,
        name=policy or "TD",
        use_batch=engine != "oracle",
    )


def _td_run(scenario, tree, engine, *, failure="global:0.3", adapt_interval=10,
            epochs=12, start_epoch=95, membership=None, auditor=None, **scheme):
    """One simulator run; everything the engines must agree on, by value."""
    td = _td_scheme(scenario, tree, engine, **scheme)
    simulator = EpochSimulator(
        scenario.deployment,
        build_failure_model(failure),
        td,
        seed=4,
        adapt_interval=adapt_interval,
        membership=membership,
        churn_interval=10 if membership is not None else None,
        auditor=auditor,
    )
    result = simulator.run(
        epochs, UniformReadings(10, 100, seed=2), start_epoch=start_epoch
    )
    record = (
        result.epochs,  # whole EpochResults: outcome, extra, truth, log
        simulator.channel.per_node_words(),
        simulator.channel.per_node_messages(),
        td.adaptation_log,
        result.energy.per_node_uj,
    )
    return td, record


@pytest.mark.parametrize("adapt_interval", (0, 1, 10))
@pytest.mark.parametrize("attempts", (1, 2))
@pytest.mark.parametrize("failure", TD_FAILURES)
@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
@pytest.mark.parametrize("policy", sorted(TD_POLICIES))
def test_td_fused_matches_object_and_oracle(
    deep_scenario, deep_tree, policy, aggregate, failure, attempts,
    adapt_interval,
):
    """Fused == scalar oracle, adaptation included.

    Whole epoch records are compared — ``extra["missing_stats"]`` and the
    per-epoch logs with them — plus per-node words/messages/energy and the
    adaptation log the missing statistics drive.
    """
    settings = dict(
        policy=policy,
        aggregate=aggregate,
        failure=failure,
        attempts=attempts,
        adapt_interval=adapt_interval,
    )
    fused, record = _td_run(deep_scenario, deep_tree, "fused", **settings)
    assert fused.engine_path == "fused"
    oracle, expected = _td_run(deep_scenario, deep_tree, "oracle", **settings)
    assert oracle.engine_path == "object: use_batch=False"
    assert record == expected


#: Initial delta depth (``initial_modes_by_level``) per graph shape.
DELTA_LEVELS = {
    "all-T": -1,
    "M base with direct T children": 0,
    "deep levels without an M node": 1,
    "mixed": 4,
    "all-M": 8,
}


@pytest.mark.parametrize("loss", (0.0, 0.3))
@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
@pytest.mark.parametrize(
    "shape",
    (
        "all-T",
        "M base with direct T children",
        "deep levels without an M node",
        "mixed",
        "all-M",
        "an empty level",
    ),
)
def test_td_graph_shapes_and_block_splits(
    deep_scenario, deep_tree, shape, aggregate, loss
):
    """Every delta shape, under every way of cutting 12 epochs into blocks."""
    epochs = list(range(200, 212))
    readings = UniformReadings(10, 100, seed=0)
    delta_level = DELTA_LEVELS.get(shape, DELTA_LEVELS["mixed"])

    def run(engine, spans):
        scheme = _td_scheme(
            deep_scenario,
            deep_tree,
            engine,
            aggregate=aggregate,
            delta_level=delta_level,
        )
        if shape == "an empty level":
            scheme._level_nodes.insert(1, [])
        channel = Channel(deep_scenario.deployment, GlobalLoss(loss), seed=8)
        if spans is None:
            pairs = run_epochs_scalar(scheme, epochs, channel, readings)
        else:
            pairs, cursor = [], iter(epochs)
            for span in spans:
                block = list(itertools.islice(cursor, span))
                pairs += scheme.run_epochs(block, channel, readings)
                assert scheme.engine_path == "fused"
        return pairs, channel.per_node_words(), channel.per_node_messages()

    oracle = run("oracle", None)
    # The shapes really are what their names say.
    delta = _td_scheme(
        deep_scenario, deep_tree, "oracle", delta_level=delta_level
    ).graph.delta_region()
    if shape == "all-T":
        assert not delta
    elif shape == "M base with direct T children":
        assert delta == {BASE_STATION}
    elif shape == "all-M":
        assert len(delta) == len(deep_scenario.rings.levels)
    else:
        assert {BASE_STATION} < delta < set(deep_scenario.rings.levels)
    for spans in ((12,), (5, 7), (1,) * 12):
        assert run("fused", spans) == oracle, spans


@pytest.mark.parametrize("loss", (0.0, 0.3))
@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
@pytest.mark.parametrize("engine", ("fused", "object", "oracle"))
def test_tag_and_sd_are_the_extreme_td_labelings(
    deep_scenario, deep_tree, engine, aggregate, loss
):
    """Section 3's special cases: TD over an all-T graph is TAG, over an
    all-M graph SD — TD on each engine against the baselines' oracle (the
    ``object`` engine is a blocked run with an inert chaos runtime
    attached, which takes the oracle).

    All-T reproduces TAG's estimates, logs and per-node bills epoch by
    epoch. All-M reproduces SD's estimates and contributing estimates; its
    switchable tips still bill the missing statistics SD never sends.
    """
    deployment, rings = deep_scenario.deployment, deep_scenario.rings
    epochs = list(range(40, 52))
    readings = UniformReadings(10, 100, seed=1)

    def run(scheme, engine):
        channel = Channel(deployment, GlobalLoss(loss), seed=6)
        if engine == "object":
            channel.chaos = ChaosRuntime()
        pairs = scheme.run_epochs(epochs, channel, readings)
        assert scheme.engine_path == ENGINE_PATHS[engine]
        estimates = [
            (outcome.estimate, outcome.contributing, outcome.contributing_estimate)
            for outcome, _ in pairs
        ]
        billing = (channel.per_node_words(), channel.per_node_messages())
        return estimates, [log for _, log in pairs], billing

    def td(delta_level):
        graph = TDGraph(
            rings, deep_tree, initial_modes_by_level(rings, delta_level)
        )
        scheme = TributaryDeltaScheme(
            deployment, graph, AGGREGATES[aggregate](), use_batch=engine != "oracle"
        )
        return run(scheme, engine)

    tag = TagScheme(deployment, deep_tree, AGGREGATES[aggregate](), use_batch=False)
    assert td(-1) == run(tag, "oracle")
    sd = SynopsisDiffusionScheme(
        deployment, rings, AGGREGATES[aggregate](), use_batch=False
    )
    assert td(rings.depth)[0] == run(sd, "oracle")[0]


@pytest.mark.parametrize("tile_words", (1, 250, 10**6))
def test_epoch_tiling_is_invisible(
    deep_scenario, deep_tree, monkeypatch, tile_words
):
    """One epoch per tile, three per tile, the whole block in one tile."""
    monkeypatch.setattr(sd_kernel, "TILE_ROW_WORDS", tile_words)
    epochs = list(range(300, 310))
    readings = UniformReadings(10, 100, seed=0)

    def build(engine):
        return (
            SynopsisDiffusionScheme(
                deep_scenario.deployment,
                deep_scenario.rings,
                SumAggregate(),
                use_batch=engine != "oracle",
            ),
            _td_scheme(deep_scenario, deep_tree, engine),
        )

    for fused, oracle in zip(build("fused"), build("oracle")):
        rows, channels = [], []
        for scheme in (fused, oracle):
            channel = Channel(deep_scenario.deployment, GlobalLoss(0.3), seed=8)
            rows.append(scheme.run_epochs(epochs, channel, readings))
            channels.append(channel)
        assert fused.engine_path == "fused"
        assert rows[0] == rows[1]
        assert channels[0].per_node_words() == channels[1].per_node_words()
        assert channels[0].per_node_messages() == channels[1].per_node_messages()


def test_td_churn_parity_and_strict_auditor(deep_scenario, deep_tree):
    """Churn re-derives modes between blocks; the auditor runs the oracle
    (its chaos runtime hooks every delivery) and says so."""
    def membership():
        return DynamicMembership(
            REJOIN_CHURN, deep_scenario.deployment, deep_scenario.rings,
            deep_tree,
        )

    settings = dict(policy="TD", epochs=30, start_epoch=0, failure="global:0.2")
    fused, record = _td_run(
        deep_scenario, deep_tree, "fused", membership=membership(), **settings
    )
    assert fused.engine_path == "fused"
    _, expected = _td_run(
        deep_scenario, deep_tree, "oracle", membership=membership(), **settings
    )
    assert record == expected
    auditor = Auditor(strict=True)
    audited, expected = _td_run(
        deep_scenario, deep_tree, "fused", membership=membership(),
        auditor=auditor, **settings,
    )
    assert audited.engine_path == "object: chaos attached"
    assert auditor.checks["edge-correctness"] > 0
    assert record == expected


def test_property_1_and_2_after_every_fused_adaptation(
    deep_scenario, deep_tree
):
    """Adapting every epoch under loss, each block fused, each step legal."""
    scheme = _td_scheme(deep_scenario, deep_tree, "fused", policy="TD")
    adapt = scheme.adapt
    sizes = []

    def checked_adapt(epoch, outcome):
        assert scheme.engine_path == "fused"
        adapt(epoch, outcome)
        scheme.graph.validate()
        report = audit(
            topology_of_td_graph(scheme.graph), base_station=BASE_STATION
        )
        assert not report.edge_violations and not report.path_violations
        sizes.append(len(scheme.graph.delta_region()))

    scheme.adapt = checked_adapt
    EpochSimulator(
        deep_scenario.deployment, GlobalLoss(0.3), scheme, seed=4,
        adapt_interval=1,
    ).run(40, UniformReadings(10, 100, seed=2))
    assert len(sizes) == 40
    assert len(set(sizes)) > 3  # the delta really moved under the kernel


def test_fused_td_asserts_property_1_on_its_layout(deep_scenario, deep_tree):
    scheme = _td_scheme(deep_scenario, deep_tree, "fused")
    graph = scheme.graph
    # Label a node M behind the graph's back while its tree parent stays T:
    # its broadcast would feed a T vertex.
    victim = next(
        node
        for node, parent in sorted(graph.tree.parents.items())
        if graph.is_tree(node) and graph.is_tree(parent)
    )
    graph._modes[victim] = Mode.MULTIPATH
    channel = Channel(deep_scenario.deployment, GlobalLoss(0.0), seed=1)
    with pytest.raises(PropertyViolation) as raised:
        scheme.run_epochs([0, 1], channel, UniformReadings(10, 100, seed=0))
    assert raised.value.invariant == "edge-correctness"
    assert raised.value.nodes == (victim,)


def test_fig6_td_blocks_never_enter_the_object_wave(monkeypatch):
    """The Fig-6 configuration is fused end to end for both TD variants."""
    def forbidden(self, *args, **kwargs):
        raise AssertionError("a fig6 TD block fell back to the scalar oracle")

    monkeypatch.setattr(TributaryDeltaScheme, "_run_wave", forbidden)
    for scheme in ("TD-Coarse", "TD"):
        result = run_config_result(
            EXPERIMENT_CONFIGS["fig6"].replace(
                scheme=scheme,
                num_sensors=60,
                start_epoch=90,
                epochs=30,
            )
        )
        assert len(result.epochs) == 30


def test_refusal_reasons(deep_scenario, deep_tree):
    """The fused kernel refuses no query: every leaf slot — FM, extremum or
    object column, a GROUP BY cube included — rides it. ``engine_path``
    names the two reasons a block runs the oracle instead, chaos attached
    and ``use_batch=False``, and a T vertex without a tree parent has no
    layout at all."""
    deployment, rings = deep_scenario.deployment, deep_scenario.rings
    readings = UniformReadings(10, 100, seed=0)
    grouped, _ = parse_query("SELECT avg GROUP BY region:1").build(
        readings, deployment=deployment
    )
    subjects = [
        (aggregate, readings)
        for aggregate in (
            SumAggregate(),
            AverageAggregate(),
            MinAggregate(),
            MaxAggregate(),
            build_aggregate("heavy_hitters:0.05"),
            grouped,
        )
    ]
    multiquery = QueryWorkload(specs=EXPERIMENT_CONFIGS["multiquery"].queries)
    subjects.append(multiquery.build(readings))
    # A workload with a grouped slot (the service admits one at a boundary).
    mixed = WorkloadAggregate([("mean", AverageAggregate()), ("by-region", grouped)])
    subjects.append((mixed, WorkloadReadings([readings, readings])))

    def schemes(aggregate, use_batch=True):
        graph = TDGraph(rings, deep_tree, initial_modes_by_level(rings, 1))
        return tuple(
            scheme(deployment, topology, aggregate, use_batch=use_batch)
            for scheme, topology in (
                (TagScheme, deep_tree),
                (SynopsisDiffusionScheme, rings),
                (TributaryDeltaScheme, graph),
            )
        )

    def run(scheme, readings=readings, chaos=None):
        channel = Channel(deployment, GlobalLoss(0.3), seed=1)
        channel.chaos = chaos
        pairs = scheme.run_epochs([0, 1], channel, readings)
        return pairs, channel.per_node_words(), channel.per_node_messages()

    for scheme in schemes(SumAggregate()):
        assert scheme.engine_path is None  # no block has run yet
    for aggregate, source in subjects:
        for scheme in schemes(aggregate):
            run(scheme, source)
            assert scheme.engine_path == "fused", aggregate.name
    for fused, chaotic, oracle in zip(
        schemes(SumAggregate()),
        schemes(SumAggregate()),
        schemes(SumAggregate(), use_batch=False),
    ):
        expected = run(fused)
        assert run(chaotic, chaos=ChaosRuntime()) == expected
        assert chaotic.engine_path == "object: chaos attached"
        assert run(oracle) == expected
        assert oracle.engine_path == "object: use_batch=False"
    with pytest.raises(AttributeError):
        oracle.engine_path = "fused"

    tag, _, td = schemes(SumAggregate())
    orphan = next(n for n in td._tree_parents if td.graph.is_tree(n))
    del td._tree_parents[orphan]
    for build in (
        td._wave_layout,
        lambda: WaveLayout.build(tag._layout.level_nodes, (), {}, {}),
    ):
        with pytest.raises(PropertyViolation) as raised:
            build()
        assert raised.value.invariant == "path-correctness"


# -- the paper's claims, through the fused path ------------------------------


@pytest.fixture
def fused_only(monkeypatch):
    """Fail the test if any TD block leaves the fused kernel."""
    def forbidden(self, *args, **kwargs):
        raise AssertionError("a TD block fell back to the scalar oracle")

    monkeypatch.setattr(TributaryDeltaScheme, "_run_wave", forbidden)


def test_fig2_loss_sweep_td_tracks_the_better_scheme(fused_only):
    """Fig 2 at 150 nodes: TD is never worse than both baselines, and once
    TAG has crossed over SD it is strictly better than TAG.

    Loss 0.05 sits on the crossover itself, where at this size the three
    curves are within sketch noise of each other; the sweep steps over it.
    """
    base = EXPERIMENT_CONFIGS["fig2"].replace(
        num_sensors=150, epochs=40, converge_epochs=60
    )
    crossed = False
    for loss in (0.0, 0.1, 0.2, 0.3, 0.4):
        rms = {
            scheme: run_config_result(
                base.replace(scheme=scheme, failure=f"global:{loss}")
            ).rms_error()
            for scheme in ("TAG", "SD", "TD")
        }
        assert rms["TD"] <= max(rms["TAG"], rms["SD"]), (loss, rms)
        if rms["TAG"] > rms["SD"]:
            crossed = True
            assert rms["TD"] < rms["TAG"], (loss, rms)
    assert crossed


@pytest.mark.parametrize("scheme", ("TD-Coarse", "TD"))
def test_fig6_phases_grow_and_shrink_the_delta(fused_only, scheme):
    """Fig 6 at 150 nodes: quiet -> regional -> global loss grows the delta
    phase over phase, and it drains again once the network recovers."""
    result = run_config_result(
        EXPERIMENT_CONFIGS["fig6"].replace(num_sensors=150, scheme=scheme)
    )
    sizes = [epoch.extra["delta_size"] for epoch in result.epochs]
    quiet, regional, worldwide, recovery = (
        sizes[start : start + 100] for start in range(0, 400, 100)
    )
    mean = lambda phase: sum(phase) / len(phase)
    assert mean(quiet) < mean(regional) < mean(worldwide)
    assert regional[-1] > quiet[-1]
    assert worldwide[-1] > regional[-1]
    assert recovery[-1] < worldwide[-1] / 2
