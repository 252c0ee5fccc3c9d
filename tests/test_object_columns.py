"""Object columns: leaf slots without fixed-width state on the fused kernel.

Heavy hitters, both quantile routes, the uniform sample and exact distinct
keep their own partials and synopses in the kernel's object columns, fused
in the oracle's inbox order. Three checks:

* fused ≡ the ``use_batch=False`` oracle, record by record (``repr``) and
  node by node (words, messages), under TAG, SD and TD at loss 0.3, over
  uneven block splits;
* Algorithm 2 fused a whole level at once
  (:meth:`~repro.frequent.mp_fi.MultipathFrequentItems.fuse_level`) equals
  the per-inbox fold on drawn inboxes, words included;
* the paper's four-query ``multiquery`` portfolio runs fused;
* heavy hitters' block forms take a reading's item id exactly as the
  scalar forms do, ids beyond int64 and negative ones included.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.average import AverageAggregate
from repro.aggregates.frequent import HeavyHittersAggregate
from repro.api import EXPERIMENT_CONFIGS, QueryWorkload, build_scenario
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.streams import UniformReadings
from repro.datasets.synthetic import make_synthetic_scenario
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.network.simulator import run_epochs_scalar
from repro.registry import build_aggregate, build_regions
from repro.spatial import RegionFilteredAggregate
from repro.tree.construction import build_bushy_tree

SCENARIO = make_synthetic_scenario(num_sensors=40, seed=5)
TREE = build_bushy_tree(SCENARIO.rings, seed=5)
EPOCHS = list(range(200, 212))
#: Ways to cut the 12 epochs into blocks.
SPLITS = ((12,), (5, 7), (1, 4, 2, 5))

#: Registered object leaves, the ``multiquery`` portfolio (Count, Sum, a
#: windowed WHERE mean and heavy hitters side by side), and a region-filtered
#: average (FM columns masked by node id).
CASES = (
    "heavy_hitters:0.05",
    "quantiles:0.05",
    "quantiles_qd:0.05",
    "sample",
    "distinct",
    "multiquery",
    "region-avg",
)

#: Scheme shapes: TD's delta at level 0 (an M base whose T children report
#: straight to it) and at level 2 (a frontier of converted T payloads).
SHAPES = ("TAG", "SD", "TD-base", "TD-mixed")


def _aggregate(case):
    """A fresh aggregate for ``case`` and the readings it reads."""
    source = UniformReadings(10, 100, seed=3)
    if case == "multiquery":
        return QueryWorkload(EXPERIMENT_CONFIGS["multiquery"].queries).build(source)
    if case == "region-avg":
        hierarchy, depth, _ = build_regions("region:1", SCENARIO.deployment)
        region = hierarchy.regions_at(depth)[0]
        return RegionFilteredAggregate(AverageAggregate(), hierarchy, region), source
    return build_aggregate(case), source


def _scheme(shape, aggregate, use_batch):
    deployment, rings = SCENARIO.deployment, SCENARIO.rings
    if shape == "TAG":
        return TagScheme(deployment, TREE, aggregate, use_batch=use_batch)
    if shape == "SD":
        return SynopsisDiffusionScheme(
            deployment, rings, aggregate, use_batch=use_batch
        )
    depth = 0 if shape == "TD-base" else 2
    graph = TDGraph(rings, TREE, initial_modes_by_level(rings, depth))
    return TributaryDeltaScheme(deployment, graph, aggregate, use_batch=use_batch)


def _fingerprint(pairs):
    """Every epoch's outcome and log as one ``repr``.

    Missing statistics are listed sorted: the fused kernel keeps them in
    reporter order, the oracle in arrival order (the same dict either way).
    """
    rows = []
    for outcome, log in pairs:
        extra = dict(outcome.extra)
        if extra.get("missing_stats"):
            extra["missing_stats"] = sorted(extra["missing_stats"].items())
        rows.append(
            (
                outcome.estimate,
                outcome.contributing,
                outcome.contributing_estimate,
                sorted(extra.items()),
                log,
            )
        )
    return repr(rows)


def _run(shape, case, engine, split=(12,)):
    """The fingerprint, per-node bills and last engine path of one run."""
    aggregate, readings = _aggregate(case)
    scheme = _scheme(shape, aggregate, engine != "oracle")
    channel = Channel(SCENARIO.deployment, GlobalLoss(0.3), seed=9)
    if engine == "oracle":
        pairs = run_epochs_scalar(scheme, EPOCHS, channel, readings)
    else:
        pairs, cursor = [], iter(EPOCHS)
        for span in split:
            pairs += scheme.run_epochs(
                list(itertools.islice(cursor, span)), channel, readings
            )
    bills = (channel.per_node_words(), channel.per_node_messages())
    return _fingerprint(pairs), bills, scheme.engine_path


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("case", CASES)
def test_fused_equals_object_and_oracle(case, shape):
    """Fused ≡ the ``use_batch=False`` oracle, the one object engine."""
    oracle = _run(shape, case, "oracle")
    for split in SPLITS:
        fused = _run(shape, case, "fused", split)
        assert fused[2] == "fused"
        assert fused[:2] == oracle[:2], split


# -- Algorithm 2, a level at once -----------------------------------------------

#: The default heavy-hitters engine, and one whose wide epsilon over a small
#: ``log N`` makes promotions prune items of count one.
ENGINES = {
    "default": HeavyHittersAggregate(0.05)._engine,
    "pruning": HeavyHittersAggregate(0.9, epsilon=0.45, total_items_hint=4)._engine,
}


@st.composite
def synopses(draw, engine):
    """One SG synopsis: up to 127 items over a small overlapping item set,
    so classes run 0–6 and fusions promote and cascade."""
    n = draw(st.integers(1, 127))
    counts = draw(
        st.dictionaries(st.integers(0, 7), st.integers(1, n), min_size=1, max_size=6)
    )
    key = draw(st.integers(0, 50))
    return engine.synopsis(counts, n, "fi", key, key % 3)


@st.composite
def collections(draw, engine):
    """A class-keyed collection, empty or not."""
    drawn = draw(st.lists(synopses(engine), max_size=4))
    return {synopsis.klass: synopsis for synopsis in drawn}


@st.composite
def levels(draw, engine):
    """A level's inboxes; some collections sit in several (a broadcast)."""
    shared = draw(st.lists(collections(engine), min_size=1, max_size=4))
    pool = st.one_of(collections(engine), st.sampled_from(shared))
    return draw(
        st.lists(st.lists(pool, min_size=1, max_size=6), min_size=1, max_size=5)
    )


def _fold(engine, inboxes):
    fused = [engine.fuse_collections(inbox) for inbox in inboxes]
    return fused, [engine.collection_words(result) for result in fused]


def _same(got, expected):
    assert got[1] == expected[1]
    for mine, theirs in zip(got[0], expected[0]):
        assert list(mine) == list(theirs)  # class order
        assert mine == theirs


@pytest.mark.parametrize("name", sorted(ENGINES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuse_level_equals_the_per_inbox_fold(name, data):
    engine = ENGINES[name]
    first = data.draw(levels(engine))
    fused = engine.fuse_level(first)
    _same(fused, _fold(engine, first))
    # A level's results are packed rows; the next level reads them so.
    carried = [
        inbox + [result]
        for inbox, result in zip(data.draw(levels(engine)), fused[0])
    ]
    _same(engine.fuse_level(carried), _fold(engine, carried))


def test_a_drawn_level_can_cascade_and_prune():
    """What the strategies draw for is reachable: sixteen class-1 synopses
    of the pruning engine, each of its own item, cascade up several classes,
    and promotions drop items whose share fell under the bar."""
    engine = ENGINES["pruning"]
    inbox = [{1: engine.synopsis({node: 3}, 3, "fi", node, 0)} for node in range(16)]
    fused = engine.fuse_collections(inbox)
    assert max(fused) >= 3
    assert sum(len(synopsis.counts) for synopsis in fused.values()) < 16
    _same(engine.fuse_level([inbox]), _fold(engine, [inbox]))


# -- the portfolio runs fused -----------------------------------------------------


def test_multiquery_runs_fused():
    config = EXPERIMENT_CONFIGS["multiquery"].replace(
        num_sensors=60, converge_epochs=5, epochs=4
    )
    scenario = build_scenario(config)
    scheme, readings = scenario.bind()
    scenario.converge(scheme, readings)
    channel = Channel(scenario.topology.deployment, scenario.failure, seed=config.seed)
    scheme.run_epochs(list(range(100, 104)), channel, readings)
    assert scheme.engine_path == "fused"


# -- item ids as the scalar forms take them ---------------------------------------

#: Readings whose item id (``int(round(reading))``) no int64 holds, a
#: negative one, and an ordinary one.
EDGE_READINGS = {"1e19": [1e19], "2**63": [2.0**63], "negative": [-7.0]}
EDGE_READINGS["mixed"] = [1e19, 2.0**63, -7.0, 5.0]


@pytest.mark.parametrize("name", sorted(EDGE_READINGS))
def test_heavy_hitters_block_forms_take_item_ids_as_the_scalar_forms(name):
    readings = EDGE_READINGS[name]
    aggregate = HeavyHittersAggregate(0.05)
    nodes = list(range(1, len(readings) + 1))
    block = aggregate.synopsis_local_block(nodes, [0], np.array([readings]))
    scalar = [
        aggregate.synopsis_local(node, 0, reading)
        for node, reading in zip(nodes, readings)
    ]
    assert block == [scalar]
    partials = [
        aggregate.tree_local(node, 0, reading)
        for node, reading in zip(nodes, readings)
    ]
    # A subtree holding every id, converted beside the single ones.
    partials.append(functools.reduce(aggregate.tree_merge, partials))
    senders = list(range(1, len(partials) + 1))
    converted = aggregate.convert_block(partials, senders, [0] * len(partials))
    assert converted == [
        aggregate.convert(partial, sender, 0)
        for partial, sender in zip(partials, senders)
    ]
    # Algorithm 2 a level at once over rows and dicts alike.
    inboxes = [block[0], scalar, converted]
    fused, words = aggregate.synopsis_fuse_level(inboxes)
    expect = [aggregate.synopsis_fuse_many(inbox) for inbox in inboxes]
    assert fused == expect
    assert words == [aggregate.synopsis_words(synopses) for synopses in expect]
