"""Leaf-slot workloads on the fused kernel: one column set per leaf slot.

Average, Moments, Min, Max, WHERE / WINDOW queries, workloads of such
slots and GROUP BY queries run the fused kernel — each FM leaf slot an int64
partial column, one packed row section and one frontier conversion, each
Min/Max slot one float64 extremum column, a GROUP BY cube one object column
— and must equal the ``use_batch=False`` oracle byte for byte. The array
inputs they read (window blocks, workload blocks, the kernel's builders
over every leaf's declared column) must equal their scalar twins cell for
cell, and a WHERE or region filter's rejected cells insert no FM item.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.aggregates.average import AverageAggregate
from repro.aggregates.base import Aggregate, ExtremumColumn, FMColumn
from repro.aggregates.filtered import FilteredAggregate
from repro.aggregates.moments import MomentsAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.aggregates.workload import WorkloadReadings
from repro.api import QuerySpec, RunConfig, run_config_result
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.wave import LayoutWave
from repro.datasets.streams import UniformReadings
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import ConfigurationError
from repro.kernels.sd import fm_counts, fm_rows
from repro.kernels.td import extremum_values, precompute_conversions
from repro.multipath import fm
from repro.multipath.fm import sketch_to_row
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.query import WindowedReadings, parse_query
from repro.registry import AGGREGATES, build_aggregate, build_regions
from repro.spatial import RegionFilteredAggregate
from repro.service import AggregationService
from repro.service.streams import QuerySubmit

#: The leaf-slot queries: each runs fused on every layout.
PARITY_CASES = {
    "avg": dict(aggregate="avg"),
    "min": dict(aggregate="min"),
    "max": dict(aggregate="max"),
    "where-windowed-max": dict(query="SELECT max WHERE value > 50 WINDOW 5 MEAN"),
    "workload-avg-count-max": dict(
        queries=[
            {"name": "mean", "aggregate": "avg"},
            {"name": "n", "aggregate": "count"},
            {"name": "peak", "aggregate": "max"},
        ]
    ),
    "moments": dict(aggregate="moments"),
    "where-sum": dict(query="SELECT sum WHERE value > 50"),
    "where-windowed-count": dict(
        query="SELECT count WHERE value <= 40 WINDOW 5 MEAN"
    ),
    "workload": dict(
        queries=[
            {"name": "mean", "aggregate": "avg"},
            {"name": "hot", "query": "SELECT sum WHERE value > 50 WINDOW 5"},
            {"name": "spread", "aggregate": "moments"},
            {"name": "cold", "query": "SELECT count WHERE value <= 40"},
        ]
    ),
    # A GROUP BY cube is one object column keyed by region.
    "groupby-region2": dict(query="SELECT avg GROUP BY region:2"),
    "groupby-budget": dict(query="SELECT avg GROUP BY region:3:12"),
    "groupby-where": dict(query="SELECT avg WHERE value > 40 GROUP BY region:2"),
    "groupby-window": dict(query="SELECT avg GROUP BY region:2 WINDOW 5 MEAN"),
    "groupby-churn": dict(query="SELECT sum GROUP BY region:2", churn="deaths:4:3"),
}


@pytest.fixture
def engine_paths(monkeypatch):
    """The engine of every block the waves run, in order."""
    seen = []
    original = LayoutWave._run_blocks

    def spy(self, *args):
        pairs = original(self, *args)
        seen.append(self.engine_path)
        return pairs

    monkeypatch.setattr(LayoutWave, "_run_blocks", spy)
    return seen


def _config(case, scheme, **overrides):
    return RunConfig(
        scheme=scheme,
        failure="global:0.25",
        reading="uniform:10:100:3",
        num_sensors=40,
        epochs=12,
        converge_epochs=6,
        **{**PARITY_CASES[case], **overrides},
    )


def _fingerprint(result):
    return repr(result.epochs), result.energy.per_node_uj


@pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_fused_equals_object_and_oracle(case, scheme, engine_paths):
    """Fused ≡ the ``use_batch=False`` oracle, the one object engine."""
    fused = run_config_result(_config(case, scheme))
    assert engine_paths and set(engine_paths) == {"fused"}
    oracle = run_config_result(_config(case, scheme, use_batch=False))
    assert _fingerprint(fused) == _fingerprint(oracle)


def test_a_heavy_hitters_slot_rides_an_object_column(engine_paths):
    queries = PARITY_CASES["workload"]["queries"] + [
        {"name": "heavy", "aggregate": "heavy_hitters:0.05"}
    ]
    run_config_result(_config("workload", "TD", queries=queries))
    assert engine_paths and set(engine_paths) == {"fused"}


def _service(scheme, use_batch=True):
    return AggregationService(
        RunConfig(
            scheme=scheme,
            failure="global:0.2",
            num_sensors=30,
            converge_epochs=0 if scheme == "TAG" else 10,
            reading="uniform:10:100:0",
            epochs=0,
            use_batch=use_batch,
        )
    )


def _submit(queries, epochs=None):
    return QuerySubmit(
        queries=tuple(QuerySpec(name=name, query=text) for name, text in queries),
        epochs=epochs,
    )


def _drain(subscriber):
    records = []
    for item in subscriber.records(timeout=0.05):
        if isinstance(item, str):
            break
        records.append(item)
    return records


def _service_run(
    scheme, tenant=("total", "SELECT sum WHERE value > 30"), use_batch=True
):
    """A reader beside a ``tenant`` admitted for block 2 and gone after it:
    the reader's records, the engine counters and every block's path."""
    service = _service(scheme, use_batch)
    reader = service.subscribe(
        _submit(
            [
                ("mean", "SELECT avg"),
                ("hot", "SELECT avg WHERE value > 50 WINDOW 5 MEAN"),
            ]
        )
    )
    paths = []
    service.run_block()
    paths.append(service._sim.scheme.engine_path)
    service.subscribe(_submit([tenant], 1))
    for _ in range(3):
        service.run_block()
        paths.append(service._sim.scheme.engine_path)
    records = [
        (record.epoch, {name: got.estimate for name, got in record.results.items()})
        for record in _drain(reader)
    ]
    return records, service.stats()["engine"], paths


@pytest.mark.parametrize("scheme", ["TAG", "TD"])
def test_service_slot_changes_at_a_boundary_stay_fused(scheme):
    records, engine, paths = _service_run(scheme)
    assert set(paths) == {"fused"}
    assert engine["fused_blocks"] == 4
    assert engine["object_blocks"] == 0
    assert engine["last_refusal"] is None
    oracle, oracle_engine, _ = _service_run(scheme, use_batch=False)
    assert records == oracle
    assert oracle_engine["object_blocks"] == 4
    assert oracle_engine["last_refusal"] == "use_batch=False"


@pytest.mark.parametrize("scheme", ["TAG", "TD"])
def test_a_max_slot_added_and_removed_at_a_boundary_stays_fused(scheme):
    """The service's ``add_slot`` / ``remove_slot`` of an extremum column."""
    records, engine, paths = _service_run(scheme, ("peak", "SELECT max"))
    assert set(paths) == {"fused"}
    assert engine["object_blocks"] == 0
    oracle, _, _ = _service_run(scheme, ("peak", "SELECT max"), use_batch=False)
    assert records == oracle


@pytest.mark.parametrize("scheme", ["TAG", "TD"])
def test_service_grouped_slot_admitted_at_a_boundary_stays_fused(scheme):
    """A grouped subscription's ``sum`` / ``count`` GROUP BY slots join the
    reader's portfolio at a block boundary and leave after it, riding the
    fused kernel as object columns; the reader's records equal the
    oracle's."""
    records, engine, paths = _service_run(
        scheme, ("regions", "SELECT avg GROUP BY region:1")
    )
    assert set(paths) == {"fused"}
    assert engine["fused_blocks"] == 4
    assert engine["object_blocks"] == 0
    assert engine["last_refusal"] is None
    oracle, _, _ = _service_run(
        scheme, ("regions", "SELECT avg GROUP BY region:1"), use_batch=False
    )
    assert records == oracle


# -- array inputs ---------------------------------------------------------------

NODES = [3, 8, 1, 20, 14, 9]


def _scalar_window(window, source, starts, node, epoch):
    """The window reduction one reading at a time, oldest first."""
    first = max(0, epoch - window.size + 1, starts.get(node, 0))
    return window._reduce([source(node, t) for t in range(first, epoch + 1)])


@pytest.mark.parametrize("op", ["MEAN", "SUM", "MIN", "MAX", "LAST"])
def test_window_block_equals_per_epoch_batch_across_a_rejoin(op):
    source = UniformReadings(0, 1000, seed=2)
    window = WindowedReadings(source, 5, op)
    epochs = list(range(0, 16))

    def scalar(epoch_list, starts):
        return [
            [_scalar_window(window, source, starts, node, epoch) for node in NODES]
            for epoch in epoch_list
        ]

    assert window.block(NODES, epochs).tolist() == scalar(epochs, {})
    assert [window.block(NODES, [epoch])[0].tolist() for epoch in epochs] == scalar(
        epochs, {}
    )
    # Nodes 8 and 14 rejoin at epoch 9: their windows restart there.
    window.on_membership_change(SimpleNamespace(epoch=9, joined=(8, 14)))
    later = [epoch for epoch in epochs if epoch >= 9]
    rejoined = {8: 9, 14: 9}
    assert window.block(NODES, later).tolist() == scalar(later, rejoined)
    assert [window.block(NODES, [epoch])[0].tolist() for epoch in later] == scalar(
        later, rejoined
    )
    # Out-of-order epochs read the same cells.
    assert window.block(NODES, [13, 9]).tolist() == scalar([13, 9], rejoined)


def test_window_mean_is_the_sequential_sum():
    window = WindowedReadings(lambda node, epoch: 0.1 * (epoch + 1) + node, 7)
    for epoch in range(12):
        values = [0.1 * (e + 1) + 5 for e in range(max(0, epoch - 6), epoch + 1)]
        assert window.block([5], [epoch])[0, 0] == sum(values) / len(values)


def test_workload_block_equals_batch():
    source = UniformReadings(10, 100, seed=4)
    windows = [WindowedReadings(source, 5), WindowedReadings(source, 3, "MAX")]
    workload = WorkloadReadings([source, windows[0], source, windows[1]])
    epochs = [6, 7, 8, 9]
    blocks = workload.block(NODES, epochs)
    assert len(blocks) == 4
    assert blocks[0] is blocks[2]  # a shared source is read once
    for row, epoch in enumerate(epochs):
        assert list(zip(*(block[row].tolist() for block in blocks))) == [
            workload(node, epoch) for node in NODES
        ]


# -- every leaf's array forms equal its scalar forms --------------------------

NAN = float("nan")

#: ``value > 3`` rejects every cell, accepts every cell, and rejects cells
#: holding readings the inner's scalar form refuses (negative, NaN).
WHERE_BLOCKS = (
    ([3, 8, 1], [[1.0, 2.0, 3.0], [0.5, 3.0, -2.0]]),
    ([3, 8, 1], [[4.0, 7.5, 3.5], [9.0, 50.2, 3.1]]),
    ([3, 8, 1], [[-5.0, 7.5, NAN], [4.5, -2.0, 9.9]]),
)

#: A region holding sensors 3 and 1: the same three cases by node id.
REGION_BLOCKS = (
    ([8, 20], [[NAN, -4.0], [-1.0, 2.0]]),
    ([3, 1], [[2.6, 7.5], [4.5, 0.4]]),
    ([3, 8, 1], [[2.6, NAN, 3.0], [4.5, -7.0, 9.9]]),
)


def _leaves():
    """Every registered aggregate's leaf slots, plus WHERE and region
    filters over them."""
    found = {}
    for name in AGGREGATES.available():
        try:
            aggregate = build_aggregate(name)
        except ConfigurationError:
            continue
        for index, (leaf, _) in enumerate(aggregate.leaf_slots()):
            found[f"{name}/{index}"] = leaf
    found["moments-where/1"] = FilteredAggregate(
        MomentsAggregate(), parse_query("SELECT sum WHERE value > 3").where.predicate()
    ).leaf_slots()[1][0]
    for name in ("sum", "count", "max", "min"):
        found[f"{name}-where"] = FilteredAggregate(
            build_aggregate(name), lambda v: v > 3
        )
    # A clause over a clause: both masks hold.
    found["sum-where-below"] = FilteredAggregate(found["sum-where"], lambda v: v < 9)
    found["sum-region"] = RegionFilteredAggregate(
        build_aggregate("sum"), SimpleNamespace(members=lambda region: {3, 1}), "r"
    )
    return found


LEAVES = _leaves()
CLAIMING = sorted(name for name, leaf in LEAVES.items() if leaf.column() is not None)


def test_moments_leaves_are_checked():
    assert {"moments/0", "moments/1", "moments/2", "avg/0", "avg/1"} <= set(CLAIMING)
    assert {"min/0", "max/0", "max-where", "min-where"} <= set(CLAIMING)
    assert {"sum-where", "count-where", "sum-region", "sum-where-below"} <= set(
        CLAIMING
    )


def _blocks(name):
    """The ``(nodes, epochs, readings)`` blocks leaf ``name`` is checked on."""
    blocks = [([3, 8, 1], [[2.6, 7.5, 3.0], [4.5, 0.4, 9.9]])]
    if "where" in name:
        blocks += WHERE_BLOCKS
    if "region" in name:
        blocks += REGION_BLOCKS
    return [(nodes, [4, 5], np.array(readings)) for nodes, readings in blocks]


@pytest.mark.parametrize("name", CLAIMING)
def test_leaf_array_forms_equal_scalar_forms(name):
    """The kernel's builders over a leaf's declared column equal the leaf's
    scalar forms cell by cell; a filter's rejected cells never reach the
    inner, whatever they hold."""
    leaf: Aggregate = LEAVES[name]
    column = leaf.column()
    for nodes, epochs, readings in _blocks(name):

        def scalar(local, block=readings):
            return [
                [local(node, epoch, value) for node, value in zip(nodes, row)]
                for epoch, row in zip(epochs, block.tolist())
            ]

        # The block forms an object column would use read the same matrix.
        for block_form, local in (
            (leaf.tree_local_block, leaf.tree_local),
            (leaf.synopsis_local_block, leaf.synopsis_local),
        ):
            assert repr(block_form(nodes, epochs, readings)) == repr(scalar(local))
        if isinstance(column, FMColumn):
            partials = fm_counts(column, nodes, readings)
            assert partials.dtype == np.int64
            assert partials.tolist() == scalar(leaf.tree_local)
            assert fm_rows(column, nodes, epochs, readings).tolist() == [
                sketch_to_row(sketch).tolist()
                for row in scalar(leaf.synopsis_local)
                for sketch in row
            ]
            continue
        assert isinstance(column, ExtremumColumn)
        # Both zeros read as 0.0; the infinities pass through.
        edges = np.array([[-0.0, float("inf"), 3.0], [0.0, -7.5, float("-inf")]])
        for block in (readings, edges[:, : len(nodes)]):
            values = extremum_values(leaf, nodes, epochs, block)
            assert values.dtype == np.float64
            for local in (leaf.tree_local, leaf.synopsis_local):
                assert repr(values.tolist()) == repr(scalar(local, block))
    if isinstance(column, FMColumn):
        partials, senders, epochs = [0, 1, 7, 600], [2, 3, 4, 5], [1, 1, 2, 2]
        converted = precompute_conversions(
            leaf,
            None,
            np.array(partials, dtype=np.int64)[:, None],
            None,
            np.array(senders),
            np.array(epochs),
        )
        assert converted.tolist() == [
            sketch_to_row(leaf.convert(partial, sender, epoch)).tolist()
            for partial, sender, epoch in zip(partials, senders, epochs)
        ]
    else:
        assert leaf.convert(7.5, 2, 1) == 7.5


def test_moment_leaves_truncate_like_their_scalar_forms():
    _, total, squares = (leaf.column() for leaf, _ in MomentsAggregate().leaf_slots())
    readings = np.array([[2.6, 7.5, 3.0]])
    assert fm_counts(total, [1, 2, 3], readings).tolist() == [[2, 7, 3]]
    assert fm_counts(squares, [1, 2, 3], readings).tolist() == [[4, 49, 9]]
    # The array error path raises the leaf's own scalar error.
    with pytest.raises(ConfigurationError, match="moment sketches"):
        fm_counts(squares, [1], np.array([[-3.0]]))


# -- a filter's rejected cells are never hashed ---------------------------------

SCENARIO = make_synthetic_scenario(num_sensors=40, seed=5)


@pytest.fixture
def counted(monkeypatch):
    """Every ``counted_matrix`` call, as ``(label, counts, nodes, epochs)``
    rows, wherever a module of the package bound the builder."""
    calls = []
    original = fm.counted_matrix

    def spy(num_bitmaps, label, counts, *columns):
        calls.append(
            (label, *(np.asarray(values).tolist() for values in (counts, *columns)))
        )
        return original(num_bitmaps, label, counts, *columns)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "counted_matrix", None)
        if name.startswith("repro") and bound is original:
            monkeypatch.setattr(module, "counted_matrix", spy)
    return calls


def _filtered(case, source):
    """A filtered aggregate over a Sum leaf, and which cells it rejects."""
    if case == "region-sum":
        hierarchy, depth, _ = build_regions("region:1", SCENARIO.deployment)
        region = hierarchy.regions_at(depth)[0]
        inside = set(hierarchy.members(region))
        aggregate = RegionFilteredAggregate(SumAggregate(), hierarchy, region)
        return aggregate, lambda node, epoch: node not in inside
    predicate = parse_query("SELECT sum WHERE value > 50").where.predicate()
    inner = SumAggregate() if case == "where-sum" else AverageAggregate()
    return (
        FilteredAggregate(inner, predicate),
        lambda node, epoch: not predicate(source(node, epoch)),
    )


@pytest.mark.parametrize("case", ["where-sum", "where-avg", "region-sum"])
def test_rejected_cells_insert_no_items(case, counted):
    """A WHERE or region filter zeroes the weight of every cell it rejects,
    so the FM builder hashes no virtual item there."""
    source = UniformReadings(10, 100, seed=3)
    aggregate, rejects = _filtered(case, source)
    scheme = SynopsisDiffusionScheme(SCENARIO.deployment, SCENARIO.rings, aggregate)
    channel = Channel(SCENARIO.deployment, GlobalLoss(0.3), seed=9)
    scheme.run_epochs(list(range(200, 206)), channel, source)
    assert scheme.engine_path == "fused"
    rejected = accepted = 0
    for label, counts, nodes, epochs in counted:
        if label != ("sum",):
            continue
        for count, node, epoch in zip(counts, nodes, epochs):
            if rejects(node, epoch):
                assert count == 0, (node, epoch)
                rejected += 1
            else:
                accepted += count > 0
    assert rejected and accepted


# -- heavy hitters: epsilon must stay below phi -------------------------------


@pytest.mark.parametrize("spec", ["heavy_hitters:0.05:0.2", "heavy_hitters:0.1:0.1"])
def test_heavy_hitters_epsilon_at_or_above_phi_is_refused(spec):
    with pytest.raises(ConfigurationError, match="epsilon") as refused:
        build_aggregate(spec)
    phi, epsilon = spec.split(":")[1:]
    assert f"phi={float(phi):g}" in str(refused.value)
    assert f"epsilon={float(epsilon):g}" in str(refused.value)
    with pytest.raises(ConfigurationError, match="epsilon"):
        RunConfig(scheme="SD", aggregate=spec)
