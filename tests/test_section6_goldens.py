"""Byte-identity goldens for the Section 6 network runners.

Each case drives one runner of :mod:`repro.frequent` directly on the
60-sensor ``small_scenario`` at Global(0) and Global(0.3) loss, over two
epochs, and digests what the base station answered together with every
node's load and the channel's word and message counters. The figures pin
the runners only at their own parameters (fig8 lossless, fig9 on LabData,
Table 1 at one loss rate); these cases cover the rest: both quantiles
runners, the Quantiles-based baseline under loss, the multi-path scheme on
its own, tree retransmissions and the all-tree and mixed Tributary-Delta
labellings. Recorded on the runners before they were rebuilt on the shared
tree and Tributary-Delta passes; a digest that moves is a changed result.
"""

from __future__ import annotations

import pytest

from goldens import assert_golden
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.datasets.streams import ZipfItemStream
from repro.frequent.mp_fi import FMOperator, MultipathFrequentItems
from repro.frequent.quantiles_fi import QuantilesBasedFrequentItems
from repro.frequent.reporting import report_frequent
from repro.frequent.td_fi import (
    MultipathFrequentItemsScheme,
    TributaryDeltaFrequentItems,
)
from repro.frequent.td_quantiles import TributaryDeltaQuantiles
from repro.frequent.tree_fi import TreeFrequentItems
from repro.frequent.tree_quantiles import TreeQuantiles
from repro.network.failures import GlobalLoss
from repro.network.links import Channel

LOSS_RATES = (0.0, 0.3)
EPOCHS = (0, 1)
PHIS = (0.1, 0.25, 0.5, 0.75, 0.9)
SUPPORT = 0.02
EPSILON = 0.01

STREAM = ZipfItemStream(items_per_node=30, universe=200, alpha=1.2, seed=4)


def items_fn(node, epoch):
    return STREAM.items(node, epoch)


def _channel(scenario, loss):
    return Channel(scenario.deployment, GlobalLoss(loss), seed=5)


def _channel_state(channel):
    return {
        "words": channel.log.words_sent,
        "messages": channel.log.messages_sent,
        "deliveries": channel.log.deliveries,
        "drops": channel.log.drops,
        "per_node_words": channel.per_node_words(),
        "per_node_messages": channel.per_node_messages(),
    }


def _tree_fi(scenario, tree, loss):
    engine = TreeFrequentItems.min_total_load(tree, EPSILON, attempts=3)
    channel = _channel(scenario, loss)
    series = []
    for epoch in EPOCHS:
        root, report = engine.aggregate(items_fn, epoch, channel=channel)
        series.append(
            {
                "reported": report_frequent(root, SUPPORT, EPSILON) if root else [],
                "n": root.n if root else None,
                "estimates": dict(root.counts) if root else None,
                "loads": report.per_node_words,
            }
        )
    return series, _channel_state(channel)


def _tree_quantiles(scenario, tree, loss):
    engine = TreeQuantiles.min_total_load(tree, epsilon=0.05)
    channel = _channel(scenario, loss)
    series = []
    for epoch in EPOCHS:
        root, report = engine.aggregate(items_fn, epoch, channel=channel)
        series.append(
            {
                "quantiles": engine.quantiles(root, list(PHIS)) if root else None,
                "entries": root.entries if root else None,
                "n": root.n if root else None,
                "loads": report.per_node_words,
            }
        )
    return series, _channel_state(channel)


def _quantiles_based(scenario, tree, loss):
    engine = QuantilesBasedFrequentItems(tree, EPSILON)
    channel = _channel(scenario, loss)
    series = []
    for epoch in EPOCHS:
        root, report = engine.aggregate(items_fn, epoch, channel=channel)
        series.append(
            {
                "reported": engine.frequent_items(root, SUPPORT) if root else [],
                "n": root.n if root else None,
                "loads": report.per_node_words,
            }
        )
    return series, _channel_state(channel)


def _fi_outcome(outcome):
    return {
        "reported": outcome.reported,
        "total": outcome.total_estimate,
        "estimates": outcome.estimates,
    }


def _multipath_fi(scenario, tree, loss):
    algorithm = MultipathFrequentItems(
        epsilon=EPSILON, total_items_hint=1800, operator=FMOperator(8)
    )
    scheme = MultipathFrequentItemsScheme(
        scenario.rings, algorithm, support=SUPPORT
    )
    channel = _channel(scenario, loss)
    series = [
        _fi_outcome(scheme.run_epoch(epoch, channel, items_fn)) for epoch in EPOCHS
    ]
    return series, _channel_state(channel)


def _td_fi(scenario, tree, loss, delta_level):
    graph = TDGraph(
        scenario.rings, tree, initial_modes_by_level(scenario.rings, delta_level)
    )
    scheme = TributaryDeltaFrequentItems(
        graph,
        epsilon=EPSILON,
        support=SUPPORT,
        total_items_hint=1800,
        operator=FMOperator(8),
        tree_attempts=3,
    )
    channel = _channel(scenario, loss)
    series = [
        _fi_outcome(scheme.run_epoch(epoch, channel, items_fn)) for epoch in EPOCHS
    ]
    return series, _channel_state(channel)


def _td_quantiles(scenario, tree, loss, delta_level):
    graph = TDGraph(
        scenario.rings, tree, initial_modes_by_level(scenario.rings, delta_level)
    )
    scheme = TributaryDeltaQuantiles(
        graph, epsilon=0.05, sample_size=48, representatives=8
    )
    channel = _channel(scenario, loss)
    series = []
    for epoch in EPOCHS:
        outcome = scheme.run_epoch(epoch, channel, items_fn)
        answered = outcome.synopsis is not None or outcome.summary is not None
        series.append(
            {
                "quantiles": outcome.quantiles(PHIS) if answered else None,
                "summary": outcome.summary.entries if outcome.summary else None,
                "synopsis": outcome.synopsis.entries if outcome.synopsis else None,
                "weight": outcome.contributing_weight,
            }
        )
    return series, _channel_state(channel)


CASES = {
    "tree-fi-3-attempts": _tree_fi,
    "tree-quantiles": _tree_quantiles,
    "quantiles-based": _quantiles_based,
    "multipath-fi": _multipath_fi,
    "td-fi-all-tree": lambda s, t, loss: _td_fi(s, t, loss, -1),
    "td-fi-mixed": lambda s, t, loss: _td_fi(s, t, loss, 1),
    "td-quantiles-all-tree": lambda s, t, loss: _td_quantiles(s, t, loss, -1),
    "td-quantiles-mixed": lambda s, t, loss: _td_quantiles(s, t, loss, 1),
}

@pytest.mark.parametrize("loss", LOSS_RATES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_runner_reproduces_the_recorded_digest(
    small_scenario, small_tree, case, loss
):
    # Each case's ``(series, channel state)`` per loss rate.
    assert_golden(
        f"section6/{case}@{loss}", CASES[case](small_scenario, small_tree, loss)
    )
