"""Leaf locals once per chunk of consecutive levels.

The fused kernel reads and builds its leaves' locals — pass 1's partial,
extremum and object columns, pass 2's packed rows, extremum columns and
object synopses — once per run of consecutive levels that fits
``LOCAL_CHUNK_BYTES`` (readings and locals alike), and slices them per
level. Where the runs are cut must never show: one level per chunk and the
whole tile in one chunk give the same outcomes and per-node bills as the
default budget.
"""

from __future__ import annotations

import pytest

import repro.kernels.td as td_kernel
from repro.api import EXPERIMENT_CONFIGS, RunConfig, run_config_result

#: The portfolio ``repro serve`` streams in the service benchmark: the
#: reader's queries beside both of the churner's turns.
SERVE_PORTFOLIO = [
    {"name": "mean", "query": "SELECT avg"},
    {"name": "hot-mean", "query": "SELECT avg WHERE value > 50 WINDOW 5 MEAN"},
    {"name": "population", "aggregate": "count"},
    {"name": "peak", "aggregate": "max"},
    {"name": "total", "aggregate": "sum"},
]

CONFIGS = {
    "serve": RunConfig(
        scheme="TD",
        failure="global:0.2",
        reading="uniform:10:100:0",
        num_sensors=100,
        epochs=20,
        converge_epochs=20,
        queries=SERVE_PORTFOLIO,
    ),
    "multiquery": EXPERIMENT_CONFIGS["multiquery"].replace(
        num_sensors=120, epochs=20, converge_epochs=20
    ),
    **{
        f"fig6-{scheme}": EXPERIMENT_CONFIGS["fig6"].replace(
            scheme=scheme, num_sensors=150, epochs=20, start_epoch=100
        )
        for scheme in ("TAG", "SD", "TD-Coarse", "TD")
    },
}

#: Budgets under test: one level per chunk, and every level of a tile in one.
BUDGETS = {"one-level": 1, "whole-tile": 1 << 40}

#: The configs whose default chunks span several delta levels.
SPANNING = {"serve", "multiquery", "fig6-SD"}


def _fingerprint(result):
    return repr(result.epochs), result.energy.per_node_uj


@pytest.fixture
def builds(monkeypatch):
    """How many delta-pass chunks a run built: ``local_rows`` is called
    once per chunk."""
    counts = {"local_rows": 0}
    original = td_kernel.local_rows

    def spy(*args):
        counts["local_rows"] += 1
        return original(*args)

    monkeypatch.setattr(td_kernel, "local_rows", spy)
    return counts


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_level_chunks_never_change_a_result(name, budget, monkeypatch, builds):
    config = CONFIGS[name]
    default = run_config_result(config)
    default_builds = builds["local_rows"]
    builds["local_rows"] = 0
    monkeypatch.setattr(td_kernel, "LOCAL_CHUNK_BYTES", BUDGETS[budget])
    chunked = run_config_result(config)
    assert _fingerprint(chunked) == _fingerprint(default)
    if budget == "whole-tile":
        assert builds["local_rows"] <= default_builds
    elif name in SPANNING:
        assert builds["local_rows"] > default_builds


def test_a_chunk_spans_levels_while_it_fits():
    """Runs grow while their bytes fit, and a list too large alone is a run
    of its own."""
    lists = [[1] * 10, [2] * 10, [3] * 50, [4] * 5, [5] * 5]

    def chunks(cell_bytes):
        return list(td_kernel.level_chunks(lists, 4, cell_bytes))

    budget = td_kernel.LOCAL_CHUNK_BYTES
    assert chunks(1) == [(0, 5)]
    # 80 cells per 20 nodes: room for exactly the first two lists.
    assert chunks(budget // 80) == [(0, 2), (2, 3), (3, 5)]
    assert chunks(budget) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
