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

import hashlib
import json

import pytest

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


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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

#: SHA-256 of each case's ``(series, channel state)`` per loss rate.
GOLDENS = {
    "multipath-fi@0.0": "2815b8558494506e41cdf34abe349b5ebd6a873174f24a37ea5f3ed639ad03de",
    "multipath-fi@0.3": "70eae19e4daf6081162575b9f244b23c5993288f916274c995e81a679380b76e",
    "quantiles-based@0.0": "ddadf66e5f010aa65f5c2b18e31bf561e1027e00d38bcff75dba62076292f39d",
    "quantiles-based@0.3": "9e9f6129135ec361b06e8d189c0a1d40841c40b5bd94718bf2b7030855e5b797",
    "td-fi-all-tree@0.0": "22872a70d9673d88ea3de1a5af94d12e89fcfd4706202057554e30522ce1715f",
    "td-fi-all-tree@0.3": "cbc4c92de4783c100072d6b41ac54f5cba780674aa0e16ee599073321bc16696",
    "td-fi-mixed@0.0": "97210f1b6a8011ca83537926c53c5cc803db7e10e49c445d1d05e5a24dd7ff6c",
    "td-fi-mixed@0.3": "7f16f5bb8ed9ad918d88cacd2958eb503e585253a014f2f36eb285c4e44de9bc",
    "td-quantiles-all-tree@0.0": "184367ffab4494dc9d848f1bafd73429b8e298ebd44a1a89d07f5357e49b434e",
    "td-quantiles-all-tree@0.3": "ffcd59158d334a3a0b00b398c04b7d30190450bb52b77d12b8c359bceed5db41",
    "td-quantiles-mixed@0.0": "32cc7a1f79cd87a396cd208ba17257794cf85e90be3d3a6a9cf1763016f28b98",
    "td-quantiles-mixed@0.3": "07ae96257769933cad59452ad001706736682dc5b2a8fc38b0f623ea8c6c7b22",
    "tree-fi-3-attempts@0.0": "542f9e367b9a63c8fe0b32bdd9e5f40cfb6347ead8b7a91bcdfec9b0bc70c35a",
    "tree-fi-3-attempts@0.3": "a4040813b437eb4d396a2aa6fc40440240a2a1f5b32d715d3c27f7c75032668c",
    "tree-quantiles@0.0": "091c088ca2f51a9e3e45cf18fec38c188cd39ed837c8d4219635d2213ef664f8",
    "tree-quantiles@0.3": "8db312dce5b403e02f86c0b6d3e243b937f5e664e78d47e41103eaa4f203df38",
}


@pytest.mark.parametrize("loss", LOSS_RATES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_runner_reproduces_the_recorded_digest(
    small_scenario, small_tree, case, loss
):
    digest = _digest(CASES[case](small_scenario, small_tree, loss))
    assert digest == GOLDENS[f"{case}@{loss}"]
