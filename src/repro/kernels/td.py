"""The fused block kernel: the one wave, over any layout, as array passes.

Modes are fixed for a block, and Property 1 (no M -> T edge: an M node's
tree parent is M) makes the order of a mixed wave well defined without
walking it node by node: a tributary never waits on the delta. So a block
runs as up to three stages over one row layout — every node in wave order
(deepest level first), then the base station:

1. **Tributaries add.** Every level's T nodes are swept first:
   ``out = local + accumulated``, masked adds into the parent row. Exact
   counts are added into *every* parent — an M parent needs them for its
   missing statistic, an M-mode base station for its exact contributing
   count.
2. **The frontier converts once.** Every delivered T -> M payload of the
   block is one ``(partial, count, sender, epoch)`` cell; all of them go
   through Section 5's conversion function in one batched FM pass
   (:func:`precompute_conversions`) and are OR-ed into their parents'
   accumulator rows. Payloads delivered straight to an M-mode base station
   are not converted — they stay exact.
3. **The delta OR-scatters.** Levels are swept again over their M nodes
   only, through :class:`~repro.kernels.sd.RowWave`, with T receivers
   dropped from the scatter: they ignore M broadcasts, though the channel
   still logs the planned pair.

TAG's all-T layout runs stage 1 alone and SD's all-M layout stage 3 alone:
a layout without a T sender never opens the tributary pass, and one without
an M row never opens the delta's tile accumulators.

A delta row is ``[synopsis | contributing-count sketch | reporter bitmap]``.
A *reporter* (:attr:`~repro.core.wave.WaveLayout.reporters`) is an M node
whose payload carries its own missing statistic and owns one bit; its
per-epoch value lives in a side matrix. A node reports one value per epoch
whichever path it takes, so the object wave's dictionary union is an OR of
bits, its wire cost a popcount, and the base station's dictionary is
rebuilt from the bits that arrived.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.kernels import wrapper_reason
from repro.kernels.sd import (
    RowWave,
    count_contributors,
    fm_sections,
    level_pairs,
    local_rows,
    or_sorted,
)
from repro.multipath.fm import (
    DEFAULT_BITS,
    FMSketch,
    counted_matrix,
    sketch_from_row,
)
from repro.network.links import Channel, TransmissionLog
from repro.network.placement import BASE_STATION
from repro.network.simulator import EpochOutcome, gather_reading_block


def partials_refusal(aggregate) -> Optional[str]:
    """Why ``aggregate``'s tree partials cannot ride int64 rows, or None."""
    if aggregate.tree_partials_additive():
        return None
    return wrapper_reason(aggregate) or "non-additive partials"


def synopsis_refusal(aggregate) -> Optional[str]:
    """Why ``aggregate``'s synopses cannot ride packed rows, or None."""
    if aggregate.synopsis_packable() is not None:
        return None
    reason = wrapper_reason(aggregate)
    if reason is not None:
        return reason
    try:
        empty = aggregate.synopsis_empty()
    except NotImplementedError:
        empty = None
    if isinstance(empty, FMSketch) and empty.bits != 32:
        return "non-32-bit sketch"
    return "unpackable synopsis"


def refusal(layout, aggregate, channel) -> Optional[str]:
    """Why a block over ``layout`` must take the object wave, or None.

    T senders need additive integer partials and a tree parent each (every
    tributary payload must route exactly like the object wave's), M rows
    packable synopses, and no block runs fused under fault injection.
    """
    tree_items = [
        item
        for level in layout.levels
        for item in level
        if item.sender not in layout.multipath
    ]
    if tree_items:
        reason = partials_refusal(aggregate)
        if reason is not None:
            return reason
    if layout.multipath:
        reason = synopsis_refusal(aggregate)
        if reason is not None:
            return reason
    if any(item.receivers[0] is None for item in tree_items):
        return "orphaned T vertex"
    if channel.chaos is not None:
        return "chaos attached"
    return None


def precompute_conversions(
    aggregate, count_bitmaps: int, partials, counts, senders, epochs
) -> np.ndarray:
    """A block's frontier conversions as packed ``[synopsis | count]`` rows.

    Row ``i`` is what an M parent fuses for the tributary payload
    ``(partials[i], counts[i])`` sent by ``senders[i]`` at ``epochs[i]``:
    the aggregate's own conversion, then — unless the synopsis already
    counts contributors — the exact count converted under the
    ``"contrib-conv"`` label, both bit for bit the scalar converters'.
    """
    rows = aggregate.convert_block_packed(partials, senders, epochs)
    if aggregate.synopsis_counts_contributors():
        return rows
    return np.concatenate(
        [
            rows,
            counted_matrix(
                count_bitmaps,
                DEFAULT_BITS,
                ("contrib-conv",),
                counts,
                senders,
                epochs,
            ),
        ],
        axis=1,
    )


def run_td_block(
    scheme, layout, epoch_list: List[int], channel: Channel, readings
) -> List[Tuple[EpochOutcome, TransmissionLog]]:
    """Run one epoch block over ``layout`` through the fused array path.

    Byte-identical to the object wave and the scalar oracle: same outcomes
    (``extra["missing_stats"]`` included), same per-epoch logs, same
    per-node billing.
    """
    aggregate = scheme._aggregate
    accountant = scheme._accountant
    num_epochs = len(epoch_list)
    epochs = np.asarray(epoch_list, dtype=np.int64)

    plan = channel.plan_epochs(layout.levels, epoch_list)
    index, levels = level_pairs(plan, channel, layout.levels, layout.level_nodes)
    base_row = index[BASE_STATION]
    senders = list(index)[:base_row]
    sender_ids = np.asarray(senders, dtype=np.int64)
    multipath = layout.multipath
    is_m = np.fromiter(
        (node in multipath for node in index), dtype=bool, count=base_row + 1
    )
    base_is_m = bool(is_m[base_row])
    has_m = bool(is_m.any())
    m_rows = np.flatnonzero(is_m[:base_row])
    t_rows = np.flatnonzero(~is_m[:base_row])
    syn_bitmaps, contrib_bitmaps = sections = (
        fm_sections(scheme) if has_m else (0, 0)
    )
    fm_width = syn_bitmaps + contrib_bitmaps

    # -- pass 1: tributaries, all levels -----------------------------------
    acc_partial = np.zeros((base_row + 1, num_epochs), dtype=np.int64)
    acc_count = np.zeros((base_row + 1, num_epochs), dtype=np.int64)
    base_partials: List[List[int]] = [[] for _ in epoch_list]
    # Delivered T -> (non-base) M cells, per level:
    # (partials, counts, senders, epoch columns, parent rows).
    frontier = [(np.zeros(0, dtype=np.int64),) * 5]
    for level in levels:
        positions = np.flatnonzero(~is_m[level.rows])
        if not len(positions):
            continue
        nodes = [level.nodes[position] for position in positions.tolist()]
        rows = level.rows[positions]
        # A tree unicast has exactly one planned pair, to its parent: the
        # start of its span.
        pairs = level.span_starts[positions]
        success = level.success[pairs]
        targets = level.recv_rows[pairs]
        local = aggregate.tree_local_matrix(
            nodes, epoch_list, gather_reading_block(readings, nodes, epoch_list)
        ).T
        out_partial = local + acc_partial[rows]
        out_count = 1 + acc_count[rows]
        np.add.at(acc_partial, targets, out_partial * success)
        np.add.at(acc_count, targets, out_count * success)
        to_base = targets == base_row
        for position, column in zip(*np.nonzero(success & to_base[:, None])):
            base_partials[column].append(int(out_partial[position, column]))
        if has_m:
            position, column = np.nonzero(
                success & (is_m[targets] & ~to_base)[:, None]
            )
            frontier.append(
                (
                    out_partial[position, column],
                    out_count[position, column],
                    sender_ids[rows[position]],
                    column,
                    targets[position],
                )
            )

    # -- reporters: M nodes whose payload carries their own statistic ------
    expected = layout.reporters
    reporter_rows = np.asarray(
        [row for row in m_rows.tolist() if senders[row] in expected],
        dtype=np.int64,
    )
    missing = np.maximum(
        0,
        np.asarray(
            [expected[senders[row]] for row in reporter_rows.tolist()],
            dtype=np.int64,
        )[:, None]
        - acc_count[reporter_rows],
    )
    reporter_of_row = np.full(base_row, -1, dtype=np.int64)
    reporter_of_row[reporter_rows] = np.arange(len(reporter_rows))
    flag_words = -(-len(reporter_rows) // 32)

    # -- pass 2: the delta, level by level over M nodes only ---------------
    wave = RowWave(accountant, base_row, num_epochs, sections, flag_words)
    if has_m:
        # -- frontier: one batched conversion per block --------------------
        cell_partials, cell_counts, cell_senders, cell_columns, cell_parents = (
            np.concatenate(parts) for parts in zip(*frontier)
        )
        converted = (
            scheme._convert_frontier(
                cell_partials, cell_counts, cell_senders, epochs[cell_columns]
            )
            if len(t_rows)
            else None
        )
        for lo, hi in wave.tiles():
            in_tile = np.flatnonzero((cell_columns >= lo) & (cell_columns < hi))
            if len(in_tile):
                keys = cell_parents[in_tile] * (hi - lo) + (
                    cell_columns[in_tile] - lo
                )
                order = np.argsort(keys, kind="stable")
                or_sorted(
                    wave.acc.reshape(-1, wave.width)[:, :fm_width],
                    keys[order],
                    converted,
                    in_tile[order],
                )
            for level in levels:
                level_is_m = is_m[level.rows]
                positions = np.flatnonzero(level_is_m)
                if not len(positions):
                    continue
                rows = level.rows[positions]
                local = local_rows(
                    aggregate,
                    contrib_bitmaps,
                    [level.nodes[position] for position in positions.tolist()],
                    epoch_list[lo:hi],
                    readings,
                    wave.width,
                )
                reporters = reporter_of_row[rows]
                reporting = np.flatnonzero(reporters >= 0)
                reporters = reporters[reporting]
                local[reporting, :, fm_width + reporters // 32] |= (
                    np.uint32(1) << (reporters % 32).astype(np.uint32)
                )[:, None]
                # Only M -> M pairs scatter: T receivers ignore M broadcasts.
                scatter = np.flatnonzero(
                    level_is_m[level.pair_item] & is_m[level.recv_rows]
                )
                wave.level(
                    rows,
                    local,
                    layout.multipath_attempts,
                    # Pair senders as positions among the level's M nodes.
                    (np.cumsum(level_is_m) - 1)[level.pair_item[scatter]],
                    level.recv_rows[scatter],
                    level.success[scatter],
                )

    # -- billing, ground truth, base station -------------------------------
    tree_attempts = layout.tree_attempts
    if len(t_rows):
        tree_words = scheme._tree_payload_words
        tree_messages = accountant.spec_for_words(tree_words).messages
        wave.row_words[t_rows] += tree_words * tree_attempts * num_epochs
        wave.row_messages[t_rows] += tree_messages * tree_attempts * num_epochs
        wave.words_sent += len(t_rows) * tree_attempts * tree_words
        wave.messages_sent += len(t_rows) * tree_attempts * tree_messages

    deliveries = np.zeros(num_epochs, dtype=np.int64)
    for level in levels:
        deliveries += level.success.sum(axis=0)
    if has_m:
        records = []
        for level in levels:
            # A tree unicast lands whatever its parent's mode; a broadcast
            # only counts where an M node listened.
            heard = ~is_m[level.rows][level.pair_item] | is_m[level.recv_rows]
            records.append(
                (
                    level.rows,
                    level.success & heard[:, None],
                    level.span_starts,
                    level.span_stops,
                    level.recv_rows,
                )
            )
        contributing = count_contributors(base_row, num_epochs, records)
    else:
        # Every delivery chain is a tree path: the base's exact count is
        # its contributor count.
        contributing = acc_count[base_row]
    logs = wave.logs(
        len(t_rows) * tree_attempts + len(m_rows) * layout.multipath_attempts,
        sum(len(level.recv_rows) for level in levels),
        deliveries,
    )

    channel.reset_log()
    channel.account_bulk(
        dict(zip(senders, wave.row_words.tolist())),
        dict(zip(senders, wave.row_messages.tolist())),
    )

    reporter_nodes = sender_ids[reporter_rows].tolist()
    results: List[Tuple[EpochOutcome, TransmissionLog]] = []
    for column, log in enumerate(logs):
        synopsis = count_sketch = missing_stats = None
        exact_count = int(acc_count[base_row, column])
        if base_is_m:
            row = wave.base_rows[column]
            if wave.heard_base[column]:
                synopsis = sketch_from_row(row[:syn_bitmaps])
                if contrib_bitmaps:
                    count_sketch = sketch_from_row(row[syn_bitmaps:fm_width])
            arrived = np.flatnonzero(
                np.unpackbits(
                    row[fm_width:].astype("<u4").view(np.uint8),
                    bitorder="little",
                )
            )
            missing_stats = {
                reporter_nodes[reporter]: int(missing[reporter, column])
                for reporter in arrived.tolist()
            }
            # The base station never transmits; its own entry joins here.
            own = layout.missing(BASE_STATION, exact_count)
            if own is not None:
                missing_stats[BASE_STATION] = own
        outcome = scheme._evaluate_base_station(
            epoch_list[column],
            channel.chaos,
            base_partials[column],
            exact_count,
            synopsis,
            count_sketch,
            int(contributing[column]),
            missing_stats or None,
        )
        results.append((outcome, log))
    return results
