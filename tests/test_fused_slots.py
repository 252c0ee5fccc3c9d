"""Leaf-slot workloads on the fused kernel: one column set per leaf slot.

Average, Moments, Min, Max, WHERE / WINDOW queries and workloads of such
slots run the fused kernel — each FM leaf slot an int64 partial column, one
packed row section and one frontier conversion, each Min/Max slot one
float64 extremum column — and must equal the object wave and the
``use_batch=False`` oracle byte for byte. The array inputs they read
(window blocks, workload blocks, every leaf's array forms) must equal their
scalar twins cell for cell.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.wave as wave
from repro.aggregates.base import Aggregate
from repro.aggregates.filtered import FilteredAggregate
from repro.aggregates.moments import MomentsAggregate
from repro.aggregates.workload import WorkloadReadings
from repro.api import QuerySpec, RunConfig, run_config_result
from repro.datasets.streams import UniformReadings
from repro.errors import ConfigurationError
from repro.multipath.fm import sketch_to_row
from repro.query import WindowedReadings, parse_query
from repro.registry import AGGREGATES, build_aggregate
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
}


@pytest.fixture
def refusals(monkeypatch):
    """Every refusal the waves consult during a run, in order."""
    seen = []
    original = wave.refusal

    def spy(layout, aggregate, channel):
        reason = original(layout, aggregate, channel)
        seen.append(reason)
        return reason

    monkeypatch.setattr(wave, "refusal", spy)
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
def test_fused_equals_object_and_oracle(case, scheme, refusals, object_wave):
    fused = run_config_result(_config(case, scheme))
    assert refusals and all(reason is None for reason in refusals)
    with object_wave():
        forced = run_config_result(_config(case, scheme))
    oracle = run_config_result(_config(case, scheme, use_batch=False))
    assert _fingerprint(fused) == _fingerprint(forced)
    assert _fingerprint(fused) == _fingerprint(oracle)


def test_a_heavy_hitters_slot_keeps_the_object_wave_and_is_named(refusals):
    queries = PARITY_CASES["workload"]["queries"] + [
        {"name": "heavy", "aggregate": "heavy_hitters:0.05"}
    ]
    run_config_result(_config("workload", "TD", queries=queries))
    measured = [reason for reason in refusals if reason is not None]
    assert measured
    assert set(measured) == {
        "workload slot 'heavy' (heavy_hitters:0.05): non-additive partials"
    }


def _service(scheme):
    return AggregationService(
        RunConfig(
            scheme=scheme,
            failure="global:0.2",
            num_sensors=30,
            converge_epochs=0 if scheme == "TAG" else 10,
            reading="uniform:10:100:0",
            epochs=0,
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


def _service_run(scheme, tenant=("total", "SELECT sum WHERE value > 30")):
    """A reader beside a ``tenant`` admitted for block 2 and gone after it:
    the reader's records, the engine counters and every block's path."""
    service = _service(scheme)
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
def test_service_slot_changes_at_a_boundary_stay_fused(scheme, object_wave):
    records, engine, paths = _service_run(scheme)
    assert set(paths) == {"fused"}
    assert engine["fused_blocks"] == 4
    assert engine["object_blocks"] == 0
    assert engine["last_refusal"] is None
    with object_wave():
        forced, forced_engine, _ = _service_run(scheme)
    assert records == forced
    assert forced_engine["object_blocks"] == 4
    assert forced_engine["last_refusal"] == "forced by test"


@pytest.mark.parametrize("scheme", ["TAG", "TD"])
def test_a_max_slot_added_and_removed_at_a_boundary_stays_fused(
    scheme, object_wave
):
    """The service's ``add_slot`` / ``remove_slot`` of an extremum column."""
    records, engine, paths = _service_run(scheme, ("peak", "SELECT max"))
    assert set(paths) == {"fused"}
    assert engine["object_blocks"] == 0
    with object_wave():
        forced, _, _ = _service_run(scheme, ("peak", "SELECT max"))
    assert records == forced


def test_service_names_the_refusing_slot():
    service = _service("TD")
    service.subscribe(
        _submit([("mean", "SELECT avg"), ("heavy", "SELECT heavy_hitters:0.05")])
    )
    service.run_block()
    engine = service.stats()["engine"]
    assert engine["object_blocks"] == 1
    assert engine["last_refusal"] == (
        "workload slot 'SELECT heavy_hitters:0.05' (heavy_hitters:0.05): "
        "non-additive partials"
    )


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


def _leaves():
    """Every registered aggregate's leaf slots, plus WHERE filters over them."""
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
    found["sum-where"] = FilteredAggregate(build_aggregate("sum"), lambda v: v > 3)
    found["max-where"] = FilteredAggregate(build_aggregate("max"), lambda v: v > 3)
    return found


LEAVES = _leaves()
CLAIMING = sorted(
    name
    for name, leaf in LEAVES.items()
    if leaf.tree_partials_additive()
    or leaf.synopsis_packable() is not None
    or leaf.extremum_ufunc() is not None
)


def test_moments_leaves_are_checked():
    assert {"moments/0", "moments/1", "moments/2", "avg/0", "avg/1"} <= set(CLAIMING)
    assert {"min/0", "max/0", "max-where"} <= set(CLAIMING)


@pytest.mark.parametrize("name", CLAIMING)
def test_leaf_array_forms_equal_scalar_forms(name):
    leaf: Aggregate = LEAVES[name]
    nodes, epochs = [3, 8, 1], [4, 5]
    readings = np.array([[2.6, 7.5, 3.0], [4.5, 0.4, 9.9]])
    # The object wave's block forms read the same matrix.
    for block_form, local in (
        (leaf.tree_local_block, leaf.tree_local),
        (leaf.synopsis_local_block, leaf.synopsis_local),
    ):
        assert repr(block_form(nodes, epochs, readings)) == repr(
            [
                [local(node, epoch, value) for node, value in zip(nodes, row)]
                for epoch, row in zip(epochs, readings.tolist())
            ]
        )
    if leaf.tree_partials_additive():
        matrix = leaf.tree_local_matrix(nodes, epochs, readings)
        assert matrix.dtype == np.int64
        assert matrix.tolist() == [
            [leaf.tree_local(node, epoch, value) for node, value in zip(nodes, row)]
            for epoch, row in zip(epochs, readings.tolist())
        ]
    if leaf.synopsis_packable() is not None:
        packed = np.asarray(leaf.synopsis_local_block_packed(nodes, epochs, readings))
        expected = [
            sketch_to_row(leaf.synopsis_local(node, epoch, value)).tolist()
            for epoch, row in zip(epochs, readings.tolist())
            for node, value in zip(nodes, row)
        ]
        assert packed.tolist() == expected
        partials = [0, 1, 7, 600]
        converted = np.asarray(
            leaf.convert_block_packed(partials, [2, 3, 4, 5], [1, 1, 2, 2])
        )
        assert converted.tolist() == [
            sketch_to_row(leaf.convert(partial, sender, epoch)).tolist()
            for partial, sender, epoch in zip(partials, [2, 3, 4, 5], [1, 1, 2, 2])
        ]
    if leaf.extremum_ufunc() is not None:
        # Both zeros read as 0.0; the infinities pass through.
        edges = np.array([[-0.0, float("inf"), 3.0], [0.0, -7.5, float("-inf")]])
        for block in (readings, edges):
            matrix = leaf.tree_local_matrix(nodes, epochs, block)
            assert matrix.dtype == np.float64
            for local in (leaf.tree_local, leaf.synopsis_local):
                assert repr(matrix.tolist()) == repr(
                    [
                        [local(node, epoch, value) for node, value in zip(nodes, row)]
                        for epoch, row in zip(epochs, block.tolist())
                    ]
                )
        assert leaf.convert(7.5, 2, 1) == 7.5


def test_moment_leaves_truncate_like_their_scalar_forms():
    _, total, squares = (leaf for leaf, _ in MomentsAggregate().leaf_slots())
    readings = np.array([[2.6, 7.5, 3.0]])
    assert total.tree_local_matrix([1, 2, 3], [0], readings).tolist() == [[2, 7, 3]]
    assert squares.tree_local_matrix([1, 2, 3], [0], readings).tolist() == [[4, 49, 9]]
    # The array error path raises the leaf's own scalar error.
    with pytest.raises(ConfigurationError, match="moment sketches"):
        squares.tree_local_matrix([1], [0], np.array([[-3.0]]))


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
