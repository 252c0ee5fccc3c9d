"""Fused TAG block kernel: a whole epoch block of tree waves at once.

The object engine runs, per epoch, a per-edge Python loop — local partial,
inbox merge, one ``transmit_epochs`` call per level, payload objects in
dicts. For additive aggregates (``tree_partials_additive``) every piece of
that loop is integer arithmetic over a fixed tree, so the block collapses to
a handful of array passes: one ``(node, epoch)`` partial matrix per level,
one planned success table per level, and masked column adds into parent
rows. Billing is constant per transmission (``tree_words`` is constant for
additive aggregates), so the per-epoch :class:`TransmissionLog` counters are
closed-form.

Bit-identity with the object path follows from commutativity: tree merges
are integer ``+`` over disjoint subtrees, log counters are sums, and the
per-node load maps are keyed by node — no result depends on the order the
object path happened to iterate dicts in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.grouping import annotate_groups
from repro.aggregates.workload import annotate_workload
from repro.kernels import wrapper_reason
from repro.network.links import Channel, TransmissionLog
from repro.network.placement import BASE_STATION, NodeId
from repro.network.simulator import EpochOutcome, gather_reading_block


@dataclass(frozen=True)
class TagLayout:
    """Where a TAG tree's nodes live in the block kernel's accumulators.

    Rows follow the wave order — level after level, deepest first, then the
    base station — so a level's own rows are one contiguous span. Depends
    only on the tree, so the scheme computes it once per adopted tree, not
    once per block.

    Attributes:
        spans: per level, the ``(start, stop)`` rows of its nodes.
        parent_rows: per level, each node's parent's row.
        senders: every transmitting node, in row order; the base station's
            row is ``len(senders)``.
    """

    spans: Tuple[Tuple[int, int], ...]
    parent_rows: Tuple[np.ndarray, ...]
    senders: Tuple[NodeId, ...]


def tag_layout(
    levels: Sequence[Sequence[NodeId]], parents: Mapping[NodeId, NodeId]
) -> Optional[TagLayout]:
    """The accumulator layout of a tree, or None if a node has no parent.

    An orphaned node would unicast to ``None``; the object path tolerates
    it, the array path does not model it.
    """
    senders = tuple(node for level_nodes in levels for node in level_nodes)
    index = {node: row for row, node in enumerate(senders)}
    index[BASE_STATION] = len(senders)
    if any(parents.get(node) not in index for node in senders):
        return None
    spans, parent_rows, start = [], [], 0
    for level_nodes in levels:
        spans.append((start, start + len(level_nodes)))
        start += len(level_nodes)
        parent_rows.append(
            np.array([index[parents[node]] for node in level_nodes], dtype=np.int64)
        )
    return TagLayout(tuple(spans), tuple(parent_rows), senders)


def partials_refusal(aggregate) -> Optional[str]:
    """Why ``aggregate``'s tree partials cannot ride int64 rows, or None."""
    if aggregate.tree_partials_additive():
        return None
    return wrapper_reason(aggregate) or "non-additive partials"


def refusal(scheme, channel) -> Optional[str]:
    """Why this TAG block must take the object wave, or None to run fused.

    The fused path needs additive integer partials, a fully-parented tree
    and a channel without fault injection.
    """
    reason = partials_refusal(scheme._aggregate)
    if reason is None and scheme._kernel_layout is None:
        reason = "orphaned vertex"
    if reason is None and channel.chaos is not None:
        reason = "chaos attached"
    return reason


def run_tag_block(
    scheme, epoch_list: List[int], channel: Channel, readings
) -> List[Tuple[EpochOutcome, TransmissionLog]]:
    """Run one TAG epoch block through the fused array path.

    Returns the same ``(outcome, log)`` pairs as the object
    ``run_epochs`` — byte-identical estimates, counters and per-node
    billing.
    """
    aggregate = scheme._aggregate
    attempts = scheme._attempts
    depth = scheme._depth
    layout: TagLayout = scheme._kernel_layout
    base_row = len(layout.senders)
    num_epochs = len(epoch_list)

    skeletons = scheme._plan_levels()
    plan = channel.plan_epochs(skeletons, epoch_list)

    acc_partial = np.zeros((base_row + 1, num_epochs), dtype=np.int64)
    acc_count = np.zeros((base_row + 1, num_epochs), dtype=np.int64)

    # Constant billing: additive aggregates have constant tree_words, and
    # every payload carries one extra word (the contributor count).
    words_const = int(aggregate.tree_words(aggregate.tree_empty())) + 1
    messages_const = int(scheme._accountant.spec_for_words(words_const).messages)

    deliveries = np.zeros(num_epochs, dtype=np.int64)
    for level_idx, level_nodes in enumerate(scheme._levels):
        if not level_nodes:
            continue
        start, stop = layout.spans[level_idx]
        parent_rows = layout.parent_rows[level_idx]
        local = aggregate.tree_local_matrix(
            level_nodes,
            epoch_list,
            gather_reading_block(readings, level_nodes, epoch_list),
        ).T  # (nodes, epochs)
        success, _spans, _flat = plan.level_table(
            channel, level_idx, skeletons[level_idx]
        )
        # One receiver per tree unicast, so pair order == node order and the
        # success table is already (nodes, epochs).
        success = np.asarray(success, dtype=bool)

        out_partial = local + acc_partial[start:stop]
        out_count = 1 + acc_count[start:stop]
        np.add.at(acc_partial, parent_rows, out_partial * success)
        np.add.at(acc_count, parent_rows, out_count * success)
        deliveries += success.sum(axis=0)

    total_pairs = base_row  # one unicast per transmitting node
    transmissions_const = total_pairs * attempts
    words_const_total = transmissions_const * words_const
    messages_const_total = transmissions_const * messages_const

    # Match the object path's per-epoch reset: discard whatever was pending,
    # leave a fresh log behind for the simulator.
    channel.reset_log()
    channel.account_bulk(
        dict.fromkeys(layout.senders, words_const * attempts * num_epochs),
        dict.fromkeys(layout.senders, messages_const * attempts * num_epochs),
    )

    results: List[Tuple[EpochOutcome, TransmissionLog]] = []
    received = acc_count[base_row] > 0
    for column in range(num_epochs):
        log = TransmissionLog(
            transmissions=transmissions_const,
            deliveries=int(deliveries[column]),
            drops=total_pairs - int(deliveries[column]),
            words_sent=words_const_total,
            messages_sent=messages_const_total,
        )
        if received[column]:
            count = int(acc_count[base_row, column])
            outcome = EpochOutcome(
                estimate=aggregate.tree_eval(int(acc_partial[base_row, column])),
                contributing=count,
                contributing_estimate=float(count),
                extra=annotate_groups(
                    aggregate,
                    annotate_workload(aggregate, {"latency_epochs": depth}),
                ),
            )
        else:
            outcome = EpochOutcome(
                estimate=0.0,
                contributing=0,
                contributing_estimate=0.0,
                extra=annotate_groups(
                    aggregate,
                    annotate_workload(
                        aggregate, {"latency_epochs": depth}, empty=True
                    ),
                    empty=True,
                ),
            )
        results.append((outcome, log))
    return results
