"""A block is bounded by its cells, and draws against one structure per layout.

The simulator cuts a block at ``BLOCK_CELLS`` node x epoch cells
(``BLOCK_CELLS // (sensors + 1)`` epochs, at least one), and a
``WaveLayout`` builds its delivery structure — row index, spans, pair
senders, receiver rows, attempts — once; a block draws only its
``(pairs, epochs)`` success tables against it. Draws are keyed by epoch, so
neither where a block is cut nor how often a structure is reused may move a
byte:

* **block-cut invariance** — streamed, spilled scale runs write the same
  records and the same bytes under any budget;
* **the budget holds** — no kernel block spans more cells than it;
* **one structure per layout** — structures built == distinct layouts, and
  the tables drawn against a reused structure equal a fresh plan's and the
  scalar ``Channel.delivered`` outcomes, under loss, a mid-block schedule
  change, retransmissions and a chaos override;
* **TD rebuilds its layout only after a switch**;
* **the CSR build** equals a ``lexsort`` reference on any edge list.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sd_scheme as sd_scheme
import repro.core.tag_scheme as tag_scheme
import repro.core.td_scheme as td_scheme
import repro.core.wave as wave
import repro.network.simulator as simulator
from repro import serialization
from repro.api import (
    EngineOptions,
    RunConfig,
    RunReport,
    run_config_result,
)
from repro.chaos.faults import BaseStationCrash, ChaosRuntime, Partition
from repro.core.wave import WaveLayout, ring_schedule
from repro.network.failures import FailureSchedule, GlobalLoss
from repro.network.links import Channel, DeliveryStructure
from repro.network.radio import Connectivity
from repro.registry import TOPOLOGIES
from repro.tree.construction import build_bushy_tree

#: A budget that cuts every block to one epoch, and one that holds any run.
ONE_EPOCH, WHOLE_RUN = 1, 1 << 40


def _scale_config(scheme: str, store: pathlib.Path) -> RunConfig:
    return RunConfig(
        scheme=scheme,
        aggregate="sum",
        failure="global:0.2",
        topology="synthetic-scale",
        num_sensors=3000,
        epochs=9,
        converge_epochs=0,
        reading="uniform:10:100:0",
        engine=EngineOptions(state="packed"),
        retention="stream",
        storage=f"jsonl:{store}",
    )


def _spilled(config: RunConfig, store: pathlib.Path):
    """A run's reloaded records and its spilled bytes (a spill is named by
    the config's digest, which covers the store's path)."""
    report = RunReport(config=config, result=run_config_result(config))
    records = [serialization.dumps(epoch) for epoch in report.load_epochs()]
    return records, [path.read_bytes() for path in sorted(store.iterdir())]


@pytest.mark.parametrize("scheme", ["TAG", "SD"])
def test_where_a_block_is_cut_moves_no_byte(scheme, tmp_path, monkeypatch):
    # 3000 nodes: the default budget holds the whole 9-epoch run in one
    # block, 1 cell cuts one epoch per block, 4 * 3001 cells 4 + 4 + 1.
    assert simulator.BLOCK_CELLS // 3001 >= 9
    outputs = []
    for budget in (simulator.BLOCK_CELLS, ONE_EPOCH, 4 * 3001):
        monkeypatch.setattr(simulator, "BLOCK_CELLS", budget)
        store = tmp_path / str(budget)
        outputs.append(_spilled(_scale_config(scheme, store), store))
    assert outputs[0][1]  # the spill holds something
    assert all(output == outputs[0] for output in outputs[1:])


def test_td_with_churn_is_cut_invariant(monkeypatch):
    config = RunConfig(
        scheme="TD",
        aggregate="sum",
        failure="global:0.2",
        num_sensors=200,
        epochs=20,
        converge_epochs=10,
        reading="uniform:10:100:0",
        # 12 deaths at epoch 1006, applied at the boundary of 1008.
        churn="deaths:1006:12:1",
        churn_interval=4,
    )
    runs = []
    for budget in (simulator.BLOCK_CELLS, ONE_EPOCH, WHOLE_RUN):
        monkeypatch.setattr(simulator, "BLOCK_CELLS", budget)
        runs.append(run_config_result(config))
    alive = [epoch.extra["alive_sensors"] for epoch in runs[0].epochs]
    assert alive == [200] * 8 + [188] * 12
    dumped = [serialization.dumps(run) for run in runs]
    assert dumped[1] == dumped[0] and dumped[2] == dumped[0]


def _spy_kernel(monkeypatch, module, name):
    """Wrap a scheme module's kernel binding; returns the per-call
    ``(layout, epochs)`` it saw."""
    calls = []
    kernel = getattr(module, name)

    def spy(scheme, layout, epochs, channel, readings):
        calls.append((layout, list(epochs)))
        return kernel(scheme, layout, epochs, channel, readings)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize(
    "scheme,module,name",
    [("TAG", tag_scheme, "run_tag_block"), ("SD", sd_scheme, "run_sd_block")],
)
def test_no_block_spans_more_cells_than_the_budget(
    scheme, module, name, tmp_path, monkeypatch
):
    budget = 3 * 3001 + 5
    monkeypatch.setattr(simulator, "BLOCK_CELLS", budget)
    calls = _spy_kernel(monkeypatch, module, name)
    run_config_result(_scale_config(scheme, tmp_path))
    assert [len(epochs) for _, epochs in calls] == [3, 3, 3]
    assert all(len(epochs) * 3001 <= budget for _, epochs in calls)


def _count_structures(monkeypatch):
    built = []

    class Counting(DeliveryStructure):
        def __init__(self, levels):
            built.append(self)
            super().__init__(levels)

    monkeypatch.setattr(wave, "DeliveryStructure", Counting)
    return built


def test_one_structure_per_layout_over_many_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "BLOCK_CELLS", 2 * 3001)
    built = _count_structures(monkeypatch)
    calls = _spy_kernel(monkeypatch, tag_scheme, "run_tag_block")
    run_config_result(_scale_config("TAG", tmp_path))
    assert len(calls) == 5
    assert len(built) == len({id(layout) for layout, _ in calls}) == 1


def test_td_builds_a_layout_only_after_a_switch(monkeypatch):
    """Layouts built == rounds that switched a node + 1, and each layout's
    structure is built once; the records equal a run that rebuilds the
    layout every block."""
    config = RunConfig(
        scheme="TD-Coarse",
        aggregate="sum",
        failure="global:0.3",
        num_sensors=150,
        epochs=60,
        converge_epochs=0,
        reading="uniform:10:100:0",
    )
    layouts = []
    build = WaveLayout.build.__func__

    def counting_build(cls, *args, **kwargs):
        layouts.append(build(cls, *args, **kwargs))
        return layouts[-1]

    monkeypatch.setattr(WaveLayout, "build", classmethod(counting_build))
    built = _count_structures(monkeypatch)
    schemes = []
    run_epochs = td_scheme.TributaryDeltaScheme.run_epochs

    def recording(self, epochs, channel, readings):
        schemes.append(self)
        return run_epochs(self, epochs, channel, readings)

    monkeypatch.setattr(td_scheme.TributaryDeltaScheme, "run_epochs", recording)
    result = serialization.dumps(run_config_result(config))
    log = schemes[0].adaptation_log
    # The last round adapts after the last block: no block reads its layout.
    switched = sum(1 for _, _, count in log[:-1] if count)
    assert 0 < switched < len(log) - 1  # some rounds switched, some did not
    assert len(layouts) == switched + 1
    assert len(built) == len(layouts)

    # Rebuilding every block (the cache forgotten before each) moves nothing.
    def forgetful(self, epochs, channel, readings):
        self._cached_layout = None
        return run_epochs(self, epochs, channel, readings)

    monkeypatch.setattr(td_scheme.TributaryDeltaScheme, "run_epochs", forgetful)
    assert serialization.dumps(run_config_result(config)) == result


# -- draws against a reused structure -----------------------------------------


@pytest.fixture(scope="module")
def td_levels():
    """A mixed TD-like level schedule over a 120-node deployment: the
    deeper half of each level broadcasts to its audience, the rest
    unicasts to its tree parent."""
    topology = TOPOLOGIES.resolve("synthetic")(num_sensors=120, seed=4)
    tree = build_bushy_tree(topology.rings, seed=4)
    level_nodes, audiences = ring_schedule(topology.rings)
    depth = len(level_nodes)
    multipath = {
        node
        for index, nodes in enumerate(level_nodes)
        if index >= depth // 2
        for node in nodes
    }
    layout = WaveLayout.build(
        level_nodes, multipath, tree.parents, audiences, 3, 3
    )
    return topology.deployment, layout


LOSS = {
    "global": GlobalLoss(0.2),
    "timeline": FailureSchedule(
        [(0, GlobalLoss(0.0)), (13, GlobalLoss(0.4)), (17, GlobalLoss(0.1))]
    ),
}

CHAOS = {
    "none": None,
    "partition": Partition(7, 12, 4),
    "bscrash": BaseStationCrash(15, 2),
}


@pytest.mark.parametrize("chaos", sorted(CHAOS))
@pytest.mark.parametrize("loss", sorted(LOSS))
def test_reused_structure_draws_the_scalar_outcomes(td_levels, loss, chaos):
    deployment, layout = td_levels
    channel = Channel(deployment, LOSS[loss], seed=5)
    if CHAOS[chaos] is not None:
        channel.chaos = ChaosRuntime(plan=CHAOS[chaos])
    structure = layout.delivery
    for epochs in ([10, 11, 12, 13, 14], [15, 16, 17, 18], [19]):
        plan = channel.plan_epochs(structure, epochs)
        fresh = channel.plan_epochs(layout.levels, epochs)
        for level, table, fresh_table, transmissions in zip(
            structure.levels, plan.tables, fresh.tables, layout.levels
        ):
            assert np.array_equal(table, fresh_table)
            expected = [
                [
                    any(
                        channel.delivered(item.sender, receiver, epoch, attempt)
                        for attempt in range(item.attempts)
                    )
                    for epoch in epochs
                ]
                for item in transmissions
                for receiver in item.receivers
            ]
            assert table.tolist() == expected
    assert layout.delivery is structure


def test_structure_rows_follow_the_wave_order(td_levels):
    _, layout = td_levels
    structure = layout.delivery
    senders = [node for nodes in layout.level_nodes for node in nodes]
    assert structure.nodes.tolist() == senders + [0]
    assert structure.base_row == len(senders)
    for level, transmissions in zip(structure.levels, layout.levels):
        pairs = [
            (item.sender, receiver, item.attempts)
            for item in transmissions
            for receiver in item.receivers
        ]
        assert list(
            zip(
                level.pair_senders.tolist(),
                level.receivers.tolist(),
                level.attempts[level.pair_item].tolist(),
            )
        ) == pairs
        assert structure.nodes[level.recv_rows].tolist() == [
            receiver for _, receiver, _ in pairs
        ]
        assert structure.nodes[level.rows].tolist() == [
            item.sender for item in transmissions
        ]


# -- the CSR build ------------------------------------------------------------


def _lexsort_csr(num_nodes, pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, dst[order]


@st.composite
def edge_lists(draw):
    num_nodes = draw(st.integers(1, 40))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=120))
    return num_nodes, edges


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.sampled_from(["list", "int64", "int32"]))
def test_csr_build_equals_a_lexsort_build(case, form):
    num_nodes, edges = case
    given_edges = (
        edges
        if form == "list"
        else np.asarray(edges, dtype=form).reshape(-1, 2)
    )
    graph = Connectivity.from_edges(num_nodes, given_edges)
    indptr, neighbors = _lexsort_csr(num_nodes, edges)
    assert graph.indptr.dtype == np.int64 and graph.neighbors.dtype == np.int32
    assert graph.indptr.tolist() == indptr.tolist()
    assert graph.neighbors.tolist() == neighbors.tolist()


def test_csr_build_keeps_isolated_nodes_and_empty_lists():
    empty = Connectivity.from_edges(4, [])
    assert empty.indptr.tolist() == [0, 0, 0, 0, 0]
    assert empty.neighbors.tolist() == []
    graph = Connectivity.from_edges(6, [(4, 1), (1, 0)])
    assert [graph.neighbors_of(n).tolist() for n in range(6)] == [
        [1], [0, 4], [], [], [1], []
    ]
