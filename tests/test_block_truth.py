"""Ground truth once per block.

The simulator asks a scheme for the truths of a block's recorded epochs at
once (``exact_answer(epochs, readings)``): one readings gather per run of
epochs that fits ``READ_CHUNK_CELLS``, and each slot's truth one reduction
over the block where it is exact (``Aggregate.exact_reduce``). The
reference is truth per epoch — every gather one epoch and every truth the
row-by-row ``exact_array`` — and the two must agree on every epoch record,
truth extras (``workload_truths``, ``group_truths``) included.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.network.simulator as simulator
from repro import serialization
from repro.aggregates.base import Aggregate
from repro.api import EXPERIMENT_CONFIGS, RunConfig, run_config_result
from repro.chaos import Checkpointer
from repro.chaos.checkpoint import SimulationKilled
from repro.datasets.streams import UniformReadings
from repro.query import parse_query
from repro.registry import build_aggregate

#: The queries whose truths are compared, by case name.
QUERIES = {
    "sum": dict(aggregate="sum"),
    "where-window-avg": dict(query="SELECT avg WHERE value > 50 WINDOW 3"),
    "grouped-avg": dict(query="SELECT avg GROUP BY region:1"),
    "max": dict(aggregate="max"),
    "multiquery": dict(queries=EXPERIMENT_CONFIGS["multiquery"].queries),
}


def _subclasses(cls):
    seen, queue = [], [cls]
    while queue:
        current = queue.pop()
        seen.append(current)
        queue.extend(current.__subclasses__())
    return seen


@pytest.fixture
def per_epoch_truth(monkeypatch):
    """``activate()``: from then on truth is read one epoch per gather and
    computed row by row through ``exact_array`` with every reduction off,
    so down to the list truth ``exact``."""

    def activate():
        monkeypatch.setattr(simulator, "READ_CHUNK_CELLS", 1)
        for cls in _subclasses(Aggregate):
            if "exact_reduce" in vars(cls):
                monkeypatch.setattr(
                    cls, "exact_reduce", lambda self, readings, nodes, mask: None
                )

    return activate


def _config(case, scheme, **overrides):
    fields = dict(
        scheme=scheme,
        failure="global:0.2",
        reading="uniform:10:100:3",
        num_sensors=40,
        epochs=24,
        converge_epochs=6,
    )
    return RunConfig(**{**fields, **QUERIES[case], **overrides})


def _fingerprint(result):
    return repr(result.epochs), repr(result.stats), result.energy.per_node_uj


@pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
@pytest.mark.parametrize("case", sorted(QUERIES))
def test_truth_per_block_equals_truth_per_epoch(case, scheme, per_epoch_truth):
    block = run_config_result(_config(case, scheme))
    assert all("workload_truths" in r.extra for r in block.epochs) == (
        case == "multiquery"
    )
    per_epoch_truth()
    per_epoch = run_config_result(_config(case, scheme))
    assert _fingerprint(block) == _fingerprint(per_epoch)


@pytest.mark.parametrize("scheme", ["TAG", "TD"])
@pytest.mark.parametrize(
    "overrides",
    [
        dict(retention="stream"),
        dict(churn="deaths:3:5", churn_interval=4),
        dict(retention="stream", churn="deaths:3:5", churn_interval=4),
    ],
    ids=["stream", "churn", "stream-churn"],
)
@pytest.mark.parametrize("case", ["where-window-avg", "grouped-avg"])
def test_truth_per_block_under_retention_and_churn(
    case, overrides, scheme, per_epoch_truth
):
    block = run_config_result(_config(case, scheme, **overrides))
    per_epoch_truth()
    per_epoch = run_config_result(_config(case, scheme, **overrides))
    assert _fingerprint(block) == _fingerprint(per_epoch)


@pytest.mark.parametrize("scheme", ["SD", "TD"])
def test_truth_per_block_across_a_kill_and_resume(
    scheme, tmp_path, per_epoch_truth
):
    config = _config("multiquery", scheme, epochs=30)
    with pytest.raises(SimulationKilled):
        run_config_result(config, checkpoint=Checkpointer(tmp_path, kill_at=10))
    resumed = run_config_result(
        config, checkpoint=Checkpointer(tmp_path, resume=True)
    )
    per_epoch_truth()
    # A resumed run reads its first epochs back from the checkpoint file.
    assert serialization.dumps(resumed) == serialization.dumps(
        run_config_result(config)
    )


def test_truth_gathers_readings_once_per_block_chunk(monkeypatch):
    """30 recorded epochs in 10-epoch blocks: three truth gathers where
    truth per epoch made 30; with room for 3 epochs a gather, four per
    block."""
    calls = []
    original = simulator.gather_reading_block

    def spy(readings, nodes, epochs):
        calls.append(len(epochs))
        return original(readings, nodes, epochs)

    # The kernels bound the function under their own names: only truth's
    # gathers go through the module attribute.
    monkeypatch.setattr(simulator, "gather_reading_block", spy)
    config = _config("where-window-avg", "TD", epochs=30)
    run_config_result(config)
    assert calls == [10, 10, 10]
    calls.clear()
    monkeypatch.setattr(simulator, "READ_CHUNK_CELLS", 3 * config.num_sensors)
    run_config_result(config)
    assert calls == [3, 3, 3, 1] * 3
    calls.clear()
    monkeypatch.setattr(simulator, "READ_CHUNK_CELLS", 1)
    run_config_result(config)
    assert calls == [1] * 30


@pytest.mark.parametrize(
    "spec",
    ["sum", "count", "avg", "min", "max", "moments", "heavy_hitters:0.05"],
)
@pytest.mark.parametrize("where", [None, "value > 50"])
def test_exact_rows_equal_the_list_truth_row_by_row(spec, where):
    """Every row of a block's truth is the list truth ``exact`` of the
    row's readings, and so is the row's ``exact_array`` — a row the clause
    rejects whole included (its truth is the inner's neutral answer)."""
    aggregate = build_aggregate(spec)
    if where is not None:
        aggregate, _ = parse_query(f"SELECT {spec} WHERE {where}").build(
            UniformReadings(10, 100, seed=0)
        )
    nodes = list(range(1, 31))
    block = UniformReadings(10, 100, seed=4).block(nodes, range(6))
    block[2] = 20.0  # a row no reading of which passes the clause
    block[3, :5] = -0.0
    expect = [(aggregate.exact(row.tolist()), {}) for row in block]
    assert repr(aggregate.exact_rows(block, nodes)) == repr(expect)
    assert repr([(aggregate.exact_array(row, nodes), {}) for row in block]) == repr(
        expect
    )
    assert aggregate.exact_rows(block[:, :0], []) == [
        (aggregate.exact([]), {}) for _ in block[:, :0]
    ]


def test_average_truth_declines_what_an_int64_sum_cannot_hold():
    """Readings too large to sum exactly in int64, or not finite, leave the
    block truth to ``exact_array`` row by row (which raises as before on a
    NaN)."""
    aggregate = build_aggregate("avg")
    nodes = [1, 2, 3]
    big = np.array([[2.0**62, 2.0**62, 1.0], [1.0, 2.0, 3.0]])
    assert aggregate.exact_reduce(big, nodes, None) is None
    assert aggregate.exact_rows(big, nodes) == [
        (aggregate.exact(row.tolist()), {}) for row in big
    ]
    with pytest.raises(ValueError):
        aggregate.exact_rows(np.array([[1.0, np.nan, 2.0]]), nodes)
