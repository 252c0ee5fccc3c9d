"""Min and Max on the fused kernel: one float64 extremum column per slot.

On edge readings — negatives, ±inf, both zeros, repeated maxima — the fused
kernel and the scalar oracle agree byte for byte (``repr`` tells ``-0.0``
from ``0.0``) under TAG, SD and TD with loss, the oracle reached both ways:
``use_batch=False``, and a blocked run with chaos attached (``object``). A
NaN reading is refused, naming its node and epoch, on all three.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.filtered import FilteredAggregate
from repro.aggregates.minmax import MaxAggregate, MinAggregate
from repro.chaos.faults import ChaosRuntime
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import ConfigurationError
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.tree.construction import build_bushy_tree

SCENARIO = make_synthetic_scenario(num_sensors=30, seed=5)
TREE = build_bushy_tree(SCENARIO.rings, seed=5)
EPOCHS = [0, 1, 2, 3]
ENGINES = ("fused", "object", "oracle")

EDGE_VALUES = [-7.5, -1.0, -0.0, 0.0, 2.5, 9.0, math.inf, -math.inf]

AGGREGATES = {
    "min": MinAggregate,
    "max": MaxAggregate,
    "max-where": lambda: FilteredAggregate(MaxAggregate(), lambda value: value > -1.0),
}


def _scheme(name, aggregate, use_batch):
    deployment, rings = SCENARIO.deployment, SCENARIO.rings
    if name == "TAG":
        return TagScheme(deployment, TREE, aggregate, use_batch=use_batch)
    if name == "SD":
        return SynopsisDiffusionScheme(deployment, rings, aggregate, use_batch=use_batch)
    # Level-1 nodes are M: a mixed layout with a frontier and an M base.
    graph = TDGraph(rings, TREE, initial_modes_by_level(rings, 1))
    return TributaryDeltaScheme(deployment, graph, aggregate, use_batch=use_batch)


def _run(scheme_name, aggregate_name, readings, engine):
    """Outcomes, logs and per-node billing of four lossy epochs, and the
    engine that ran the last block."""
    scheme = _scheme(scheme_name, AGGREGATES[aggregate_name](), engine != "oracle")
    channel = Channel(SCENARIO.deployment, GlobalLoss(0.3), seed=9)
    if engine == "object":
        # An inert chaos runtime: the block runs the oracle, injecting nothing.
        channel.chaos = ChaosRuntime()
    rows = scheme.run_epochs(EPOCHS, channel, readings)
    billing = (channel._per_node_words, channel._per_node_messages)
    return repr(rows), billing, scheme.engine_path


def _readings(values):
    """A reading function cycling through ``values`` in a node/epoch mix."""
    return lambda node, epoch: values[(node * 31 + epoch * 7) % len(values)]


@pytest.mark.parametrize("aggregate_name", sorted(AGGREGATES))
@pytest.mark.parametrize("scheme_name", ["TAG", "SD", "TD"])
@settings(max_examples=15, deadline=None)
@given(values=st.lists(st.sampled_from(EDGE_VALUES), min_size=1, max_size=10))
def test_edge_readings_fused_equals_object_and_oracle(
    scheme_name, aggregate_name, values
):
    readings = _readings(values)
    runs = {
        engine: _run(scheme_name, aggregate_name, readings, engine)
        for engine in ENGINES
    }
    assert runs["fused"][2] == "fused"
    assert runs["object"][2] == "object: chaos attached"
    assert runs["fused"][:2] == runs["object"][:2]
    assert runs["fused"][:2] == runs["oracle"][:2]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme_name", ["TAG", "SD", "TD"])
def test_a_nan_reading_is_refused_naming_its_node_and_epoch(scheme_name, engine):
    node = SCENARIO.deployment.sensor_ids[7]

    def readings(sensor, epoch):
        return math.nan if (sensor, epoch) == (node, 2) else 5.0

    with pytest.raises(
        ConfigurationError, match=rf"max got a NaN reading at node {node}, epoch 2$"
    ):
        _run(scheme_name, "max", readings, engine)


def test_both_zeros_read_as_zero_in_any_order():
    for aggregate in (MinAggregate(), MaxAggregate()):
        assert repr(aggregate.tree_local(1, 0, -0.0)) == "0.0"
        assert repr(aggregate.synopsis_local(1, 0, -0.0)) == "0.0"
        assert repr(aggregate.exact([-0.0, 0.0])) == "0.0"
        assert repr(aggregate.exact([0.0, -0.0])) == "0.0"
