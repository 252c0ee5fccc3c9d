"""Table 1, measured: energy / error / latency for the three approaches.

The paper's Table 1 is qualitative ("minimal", "small", "very large", ...).
We regenerate it as measurements on the Synthetic scenario under a
representative Global(0.2) loss: message counts per epoch, mean message
size (words), communication error (1 - fraction contributing),
approximation error (error remaining with no loss), and latency in epochs
— for Count and for Frequent Items, per scheme.

Reproduction targets, mirroring the table's cells: all approaches send one
transmission per node ("minimal messages"); tree messages are the
smallest; tree communication error is by far the largest; multi-path
approximation error is nonzero for Count (sketches) and its frequent-items
messages are several times larger than the tree's; Tributary-Delta matches
multi-path's small communication error at tree-like message sizes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List

from repro.api import EXPERIMENT_CONFIGS, build_scenario
from repro.datasets.streams import ZipfItemStream, exact_item_counts
from repro.experiments.metrics import mean
from repro.frequent.mp_fi import FMOperator, MultipathFrequentItems
from repro.frequent.td_fi import (
    MultipathFrequentItemsScheme,
    TributaryDeltaFrequentItems,
)
from repro.frequent.tree_fi import TreeFrequentItems
from repro.network.links import Channel
from repro.plotting import format_table
from repro.registry import build_aggregate, build_failure_model

#: The quick size of the Count rows (and of the deployment the
#: frequent-items rows reuse).
QUICK_SIZES = dict(num_sensors=100, epochs=10, converge_epochs=40)


@dataclass
class Table1Row:
    scheme: str
    aggregate: str
    messages_per_node: float
    mean_message_words: float
    communication_error: float
    approximation_error: float
    latency_epochs: int


@dataclass
class Table1Result:
    rows: List[Table1Row] = field(default_factory=list)

    def render(self) -> str:
        headers = [
            "scheme",
            "aggregate",
            "msgs/node",
            "words/msg",
            "comm err",
            "approx err",
            "latency",
        ]
        formatted = [
            [
                row.scheme,
                row.aggregate,
                f"{row.messages_per_node:.2f}",
                f"{row.mean_message_words:.1f}",
                f"{row.communication_error:.3f}",
                f"{row.approximation_error:.3f}",
                str(row.latency_epochs),
            ]
            for row in self.rows
        ]
        return format_table(headers, formatted)


def run_table1(quick: bool = False, seed: int = 0) -> Table1Result:
    """Measure Table 1's cells for Count and Frequent Items."""
    base = EXPERIMENT_CONFIGS["table1"].replace(
        scenario_seed=seed, seed=seed + 1, **(QUICK_SIZES if quick else {})
    )
    result = Table1Result()

    # --- Count ----------------------------------------------------------
    for name in ("TAG", "SD", "TD"):
        scenario = build_scenario(base.replace(scheme=name))
        scheme = scenario.build_scheme(build_aggregate(base.aggregate))
        readings = scenario.source
        scenario.converge(scheme, readings)
        sensors = scenario.topology.deployment.num_sensors
        # Approximation error: the error the *converged* scheme keeps with
        # no loss at all, so it is re-measured on the live scheme.
        quiet = dataclasses.replace(
            scenario,
            config=scenario.config.replace(failure="none", seed=seed),
            failure=build_failure_model("none"),
        )
        lossless = quiet.build_simulator(scheme).run(
            5, readings, start_epoch=base.start_epoch
        )
        approx = mean(lossless.relative_errors)
        run = scenario.build_simulator(scheme).run(
            base.epochs, readings, start_epoch=base.start_epoch
        )
        comm_error = 1.0 - run.mean_contributing_fraction(sensors)
        messages = mean(
            [epoch.log.messages_sent / sensors for epoch in run.epochs]
        )
        words_per_message = mean(
            [
                epoch.log.words_sent / max(1, epoch.log.messages_sent)
                for epoch in run.epochs
            ]
        )
        latency = int(run.epochs[0].extra.get("latency_epochs", 0))
        result.rows.append(
            Table1Row(
                scheme=name,
                aggregate="Count",
                messages_per_node=messages,
                mean_message_words=words_per_message,
                communication_error=comm_error,
                approximation_error=approx,
                latency_epochs=latency,
            )
        )

    # --- Frequent items -------------------------------------------------
    # No config form. TD's Count run was the last one above: these rows
    # reuse its deployment, tree, loss model and converged delta.
    lab_like = scenario.topology
    tree = scenario.tree
    graph = scheme.graph
    loss = scenario.failure
    stream = ZipfItemStream(
        items_per_node=60, universe=400, alpha=1.2, seed=seed
    )
    items_fn = lambda node, epoch: stream.items(node, epoch)
    truth_counts = exact_item_counts(
        stream, lab_like.deployment.sensor_ids, 0
    )
    total_items = sum(truth_counts.values())
    support, epsilon = 0.01, 0.001
    operator = FMOperator(num_bitmaps=8)

    fi_schemes = {
        "TAG": None,
        "SD": None,
        "TD": None,
    }
    for name in fi_schemes:
        channel = Channel(lab_like.deployment, loss, seed=seed + 3)
        if name == "TAG":
            engine = TreeFrequentItems.min_total_load(tree, epsilon)
            root, report = engine.aggregate(items_fn, 0, channel=channel)
            latency = tree.height
        elif name == "SD":
            algorithm = MultipathFrequentItems(
                epsilon=epsilon, total_items_hint=total_items, operator=operator
            )
            scheme = MultipathFrequentItemsScheme(
                lab_like.rings, algorithm, support=support
            )
            scheme.run_epoch(0, channel, items_fn)
            latency = lab_like.rings.depth
        else:
            scheme = TributaryDeltaFrequentItems(
                graph,
                epsilon=epsilon,
                support=support,
                total_items_hint=total_items,
                operator=operator,
            )
            scheme.run_epoch(0, channel, items_fn)
            latency = lab_like.rings.depth
        log = channel.log
        result.rows.append(
            Table1Row(
                scheme=name,
                aggregate="Freq. Items",
                messages_per_node=log.messages_sent / sensors,
                mean_message_words=log.words_sent / max(1, log.messages_sent),
                communication_error=float("nan"),
                approximation_error=float("nan"),
                latency_epochs=latency,
            )
        )
    return result
