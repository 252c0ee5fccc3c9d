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
   block is one ``(partials, count, sender, epoch)`` cell; all of them go
   through Section 5's conversion function in one batched FM pass
   (:func:`precompute_conversions`) and are OR-ed into their parents'
   accumulator rows (extremum columns convert by identity, object columns
   by one ``convert_block`` each). Payloads delivered straight to an
   M-mode base station are not converted — they stay exact.
3. **The delta OR-scatters.** Levels are swept again over their M nodes
   only, through :class:`~repro.kernels.sd.RowWave`, with T receivers
   dropped from the scatter: they ignore M broadcasts, though the channel
   still logs the planned pair.

TAG's all-T layout runs stage 1 alone and SD's all-M layout stage 3 alone:
a layout without a T sender never opens the tributary pass, and one without
an M row never opens the delta's tile accumulators. Both passes read and
build their leaves' locals once per chunk of consecutive levels
(:func:`level_locals`, bounded by :data:`LOCAL_CHUNK_BYTES`), not once per
level.

Every block of every query runs here: the only other engine is the scalar
oracle (:meth:`~repro.core.wave.LayoutWave._run_wave`), which a scheme runs
under ``use_batch=False`` or with chaos attached.

The kernel runs the query as its *leaf slots*
(:meth:`~repro.aggregates.base.Aggregate.leaf_slots`): a plain aggregate is
one leaf, an Average or Moments composite, a workload or a WHERE filter over
one of them is each of its leaf aggregates side by side. A leaf declares
its column once (:meth:`~repro.aggregates.base.Aggregate.column`), and the
kernel owns every array builder over that declaration — the leaf's scalar
forms are its only other definition, and the builders equal them bit for
bit, errors included. There are three column kinds (:func:`leaf_kind`):

* an **FM column** (Count, Sum, the Moments slots, the piggyback:
  :class:`~repro.aggregates.base.FMColumn`) gets one int64 partial column
  in stage 1 (added; a cell's partial is its reading's item count,
  :func:`~repro.kernels.sd.fm_counts`), one frontier conversion in stage 2
  (:func:`precompute_conversions`) and one packed section of the delta row
  in stage 3 (OR-ed; :func:`~repro.kernels.sd.fm_rows`), so a delta row is
  ``[FM leaf 0 | FM leaf 1 | ... | ContributingCount | reporter bitmap]``:
  the leaves' packed synopses, the piggyback's (absent when the query's own
  synopsis counts contributors), then the reporters;
* an **extremum column** (Min, Max:
  :class:`~repro.aggregates.base.ExtremumColumn`) gets one float64 column
  on both sides (:func:`extremum_values`), reduced by its ``np.maximum`` /
  ``np.minimum`` wherever the FM kinds add or OR. Its partial is its
  synopsis, so the frontier hands it to the M parent unchanged, and it
  bills its constant words beside the row;
* an **object column** (a leaf declaring none: heavy hitters, quantiles,
  sample, exact distinct, a GROUP BY cube keyed by region) keeps its own
  Python partial or synopsis per cell. A T cell merges its local partial
  with its children's in delivery order; an M cell fuses its inbox — its
  local synopsis, then its converted T children in wave order, then the M
  payloads it received in sender order, exactly the oracle's inbox — for
  the whole level in one
  :meth:`~repro.aggregates.base.Aggregate.synopsis_fuse_level` call. Its
  words vary cell by cell; T and M cells alike add them to the row's
  before messages are derived (:meth:`~repro.kernels.sd.RowWave.bill`).

A WHERE clause (or a region filter) is a mask on its inner's column: an FM
cell it rejects holds no item (partial 0, a zero row, never hashed), an
extremum cell the neutral value, and an object leaf's rejected cells its
empty partial and synopsis.

The base station rebuilds each payload's leaves in slot order from the kinds'
columns. A block without an object leaf opens no object-column state.
A *reporter* (:attr:`~repro.core.wave.WaveLayout.reporters`) is an M node
whose payload carries its own missing statistic and owns one bit; its
per-epoch value lives in a side matrix. A node reports one value per epoch
whichever path it takes, so the oracle's dictionary union is an OR of
bits, its wire cost a popcount, and the base station's dictionary is
rebuilt from the bits that arrived.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.aggregates.base import FMColumn
from repro.kernels.sd import (
    RowWave,
    append_cells,
    count_contributors,
    fm_counts,
    fold_columns,
    local_rows,
    or_sorted,
    scatter_columns,
)
from repro.multipath.fm import counted_matrix, sketch_from_row
from repro.network.links import Channel, TransmissionLog
from repro.network.placement import BASE_STATION
from repro.network.simulator import EpochOutcome, gather_reading_block


#: A leaf slot's column kinds (:func:`leaf_kind`).
FM, EXTREMUM, OBJECT = "fm", "extremum", "object"


def leaf_kind(leaf) -> str:
    """How one leaf slot rides the rows, as its
    :meth:`~repro.aggregates.base.Aggregate.column` declares: an FM column
    is an int64 partial column and a packed row section, an extremum
    column its float64 column on both sides, and a leaf declaring none an
    object column, whose cells keep the leaf's own partials and synopses.
    """
    column = leaf.column()
    if column is None:
        return OBJECT
    return FM if isinstance(column, FMColumn) else EXTREMUM


#: Most bytes one chunk of consecutive levels reads and builds at once: its
#: readings gather (8 per leaf slot and cell) and its local rows (pass 1's
#: partial and extremum columns, pass 2's packed rows and extremum columns,
#: and :data:`OBJECT_CELL_BYTES` per object cell). A chunk pays one readings
#: gather and one builder call per leaf slot for all its levels, while its
#: readings, locals and the builders' temporaries stay bounded at any scale.
LOCAL_CHUNK_BYTES = 1 << 20

#: What one object-column cell's local holds, roughly: a Python partial or
#: synopsis (a heavy-hitters cell is a dict, a synopsis and its sketch).
OBJECT_CELL_BYTES = 512


def level_chunks(
    node_lists, num_epochs: int, cell_bytes: int
) -> Iterator[Tuple[int, int]]:
    """Runs ``[start, stop)`` of consecutive node lists built together:
    a run grows while its cells, ``cell_bytes`` each, fit
    :data:`LOCAL_CHUNK_BYTES`. A list that does not fit alone is a run of
    its own."""
    start = 0
    while start < len(node_lists):
        stop = start + 1
        cells = len(node_lists[start]) * num_epochs
        while stop < len(node_lists):
            more = cells + len(node_lists[stop]) * num_epochs
            if more * cell_bytes > LOCAL_CHUNK_BYTES:
                break
            cells, stop = more, stop + 1
        yield start, stop
        start = stop


def level_locals(
    slots, readings, node_lists, epochs, cell_bytes: int, build
) -> Iterator[Tuple[tuple, slice]]:
    """Per node list, its local values and its slice of their node axis.

    Each run of :func:`level_chunks` — ``cell_bytes`` of local rows per
    cell, plus 8 per leaf slot for its readings — is read in one
    ``gather_reading_block`` (a workload's holds one block per query, and a
    leaf reads its query's) and built in one ``build(nodes, epochs,
    blocks)`` call, ``blocks`` holding each leaf slot's float64 ``(epochs,
    nodes)`` readings; every list of the run yields that same result beside
    its own slice. Locals are keyed by ``(node, epoch)`` cell, so a run
    builds exactly its lists' cells.
    """
    runs = level_chunks(node_lists, len(epochs), cell_bytes + 8 * len(slots))
    for start, stop in runs:
        chunk = node_lists[start:stop]
        nodes = [node for level in chunk for node in level]
        block = gather_reading_block(readings, nodes, epochs)
        built = build(
            nodes,
            epochs,
            [
                np.asarray(block if column is None else block[column], dtype=np.float64)
                for _, column in slots
            ],
        )
        offset = 0
        for level in chunk:
            yield built, slice(offset, offset + len(level))
            offset += len(level)


def level_senders(levels, selected: np.ndarray):
    """The ``(level, success)`` pairs with a sender in ``selected`` (a
    per-row mask): each as ``(level, success, positions of those
    senders)``, and their node lists."""
    chosen = [
        (level, success, np.flatnonzero(selected[level.rows]))
        for level, success in levels
    ]
    chosen = [entry for entry in chosen if len(entry[2])]
    return chosen, [
        level.senders[positions].tolist() for level, _, positions in chosen
    ]


def split_kinds(kinds: List[str], values: list) -> Tuple[list, list, list]:
    """Per-slot ``values`` as (the FM slots', the extremum slots', the
    object slots')."""
    return tuple(
        [value for value, kind in zip(values, kinds) if kind == wanted]
        for wanted in (FM, EXTREMUM, OBJECT)
    )


def in_slot_order(kinds: List[str], fm, extrema, objects) -> list:
    """The leaves' values in slot order, from their kinds' lists (the
    inverse of :func:`split_kinds`)."""
    by_kind = {FM: iter(fm), EXTREMUM: iter(extrema), OBJECT: iter(objects)}
    return [next(by_kind[kind]) for kind in kinds]


def extremum_values(leaf, nodes, epochs, readings: np.ndarray) -> np.ndarray:
    """An extremum leaf's float64 locals of an ``(epochs, nodes)`` readings
    block, its partials and synopses alike: each accepted reading plus 0.0
    (``-0.0`` reads as ``0.0``), the neutral value in each rejected cell. A
    NaN among the accepted readings raises the leaf's own scalar error."""
    column = leaf.column()
    if column.mask is not None:
        readings = np.where(column.mask(nodes, readings), readings, column.neutral)
    nan = np.isnan(readings)
    if nan.any():
        epoch, node = np.argwhere(nan)[0].tolist()
        leaf.tree_local(nodes[node], epochs[epoch], float("nan"))
    return readings + 0.0


def leaf_columns(leaves, nodes, epochs, blocks, dtype) -> np.ndarray:
    """The FM leaves' int64 partials (:func:`~repro.kernels.sd.fm_counts`)
    or the extremum leaves' float64 values (:func:`extremum_values`) side by
    side, as one ``(node, epoch, leaf)`` array of ``dtype``."""
    local = np.empty((len(nodes), len(epochs), len(leaves)), dtype=dtype)
    for index, (leaf, block) in enumerate(zip(leaves, blocks)):
        column = leaf.column()
        local[:, :, index] = (
            fm_counts(column, nodes, block)
            if isinstance(column, FMColumn)
            else extremum_values(leaf, nodes, epochs, block)
        ).T
    return local


def precompute_conversions(
    aggregate, piggyback, partials, counts, senders, epochs
) -> np.ndarray:
    """A block's frontier conversions as packed delta-row sections.

    Row ``i`` is what an M parent fuses for the tributary payload
    ``(partials[i], counts[i])`` sent by ``senders[i]`` at ``epochs[i]``:
    each FM leaf slot's conversion of its int64 partial column — ``c``
    virtual items keyed by its column's ``conv_label`` — then, unless
    ``piggyback`` is None, the exact count through the piggyback's, all
    bit for bit the scalar ``convert``. (Extremum leaves convert by
    identity: their columns need no pass; object leaves convert through
    their own ``convert_block``.)
    """
    columns = [
        leaf.column() for leaf, _ in aggregate.leaf_slots() if leaf_kind(leaf) == FM
    ]
    cells = [partials[:, index] for index in range(len(columns))]
    if piggyback is not None:
        columns.append(piggyback.column())
        cells.append(counts)
    if not columns:
        return np.zeros((len(senders), 0), dtype=np.uint32)
    return np.concatenate(
        [
            counted_matrix(column.bitmaps, (column.conv_label,), items, senders, epochs)
            for column, items in zip(columns, cells)
        ],
        axis=1,
    )


def run_td_block(
    scheme, layout, epoch_list: List[int], channel: Channel, readings
) -> List[Tuple[EpochOutcome, TransmissionLog]]:
    """Run one epoch block over ``layout`` through the fused array path.

    Byte-identical to the scalar oracle: same outcomes
    (``extra["missing_stats"]`` included), same per-epoch logs, same
    per-node billing.
    """
    aggregate = scheme._aggregate
    accountant = scheme._accountant
    num_epochs = len(epoch_list)
    epochs = np.asarray(epoch_list, dtype=np.int64)

    # The layout's structure is built once; a block draws only its
    # (pairs x epochs) success tables.
    structure = layout.delivery
    plan = channel.plan_epochs(structure, epoch_list)
    levels = [
        (level, success)
        for level, success in zip(structure.levels, plan.tables)
        if len(level.senders)
    ]
    base_row = structure.base_row
    sender_ids = structure.senders
    is_m = layout.multipath_rows
    base_is_m = bool(is_m[base_row])
    has_m = bool(is_m.any())
    m_rows = np.flatnonzero(is_m[:base_row])
    t_rows = np.flatnonzero(~is_m[:base_row])
    slots = aggregate.leaf_slots()
    piggyback = scheme._piggyback
    # A leaf slot is an int64 partial column and a packed FM section, one
    # float64 extremum column on both sides, or an object column.
    kinds = [leaf_kind(leaf) for leaf, _ in slots]
    fm_leaves, extrema, objects = split_kinds(kinds, [leaf for leaf, _ in slots])
    extremum_columns = [leaf.column() for leaf in extrema]
    ufuncs = [column.ufunc for column in extremum_columns]
    neutral = np.array(
        [column.neutral for column in extremum_columns], dtype=np.float64
    )
    # The delta row's FM sections: one per FM leaf slot, then the piggyback's.
    section_columns = [
        leaf.column() for leaf in fm_leaves + ([] if piggyback is None else [piggyback])
    ]
    sections = [column.bitmaps for column in section_columns] if has_m else []
    fm_width = sum(sections)

    # -- pass 1: tributaries, all levels -----------------------------------
    # Exact contributing counts, one partial column per FM leaf slot, one
    # extremum column per extremum slot, and per object slot each T cell's
    # inbox of its children's partials (delivery order), keyed ``row *
    # num_epochs + column``.
    acc_count = np.zeros((base_row + 1, num_epochs), dtype=np.int64)
    # Partials and extrema are only ever added up from T rows.
    tree_rows = base_row + 1 if len(t_rows) else 0
    acc_partial = np.zeros((tree_rows, num_epochs, len(fm_leaves)), dtype=np.int64)
    acc_extrema = np.empty((tree_rows, num_epochs, len(extrema)))
    acc_extrema[...] = neutral
    tree_inboxes: List[Dict[int, list]] = [{} for _ in objects]
    # An object partial's wire size varies: T rows bill per cell.
    object_words = (
        np.zeros((base_row + 1, num_epochs), dtype=np.int64) if objects else None
    )
    base_partials: List[List[tuple]] = [[] for _ in epoch_list]
    # Delivered T -> (non-base) M cells, per level: (partials, extrema,
    # counts, senders, epoch columns, parent rows, object partials).
    frontier = [
        (
            np.zeros((0, len(fm_leaves)), dtype=np.int64),
            np.zeros((0, len(extrema))),
        )
        + (np.zeros(0, dtype=np.int64),) * 4
        + ([[] for _ in objects],)
    ]

    def tree_locals(nodes, epochs, blocks):
        fm_blocks, ext_blocks, obj_blocks = split_kinds(kinds, blocks)
        return (
            leaf_columns(fm_leaves, nodes, epochs, fm_blocks, np.int64),
            leaf_columns(extrema, nodes, epochs, ext_blocks, np.float64),
            [
                leaf.tree_local_block(nodes, epochs, block)
                for leaf, block in zip(objects, obj_blocks)
            ],
        )

    tributaries, t_nodes = level_senders(levels, ~is_m)
    t_locals = level_locals(
        slots,
        readings,
        t_nodes,
        epoch_list,
        8 * (len(fm_leaves) + len(extrema)) + OBJECT_CELL_BYTES * len(objects),
        tree_locals,
    )
    for (level, level_success, positions), (built, span) in zip(
        tributaries, t_locals
    ):
        partials, local_extrema, local_objects = built
        rows = level.rows[positions]
        # A tree unicast has exactly one planned pair, to its parent: the
        # start of its span.
        pairs = level.span_starts[positions]
        success = level_success[pairs]
        targets = level.recv_rows[pairs]
        # A level's slice is a view of its chunk's locals; levels share no
        # cell, so it is updated in place.
        out_partial = partials[span]
        out_partial += acc_partial[rows]
        out_extrema = local_extrema[span]
        out_objects = [
            merge_cells(leaf, inbox, rows, [cells[span] for cells in local])
            for leaf, inbox, local in zip(objects, tree_inboxes, local_objects)
        ]
        for leaf, cells in zip(objects, out_objects):
            object_words[rows] += np.fromiter(
                map(leaf.tree_words, cells), dtype=np.int64, count=len(cells)
            ).reshape(len(rows), num_epochs)
        out_count = 1 + acc_count[rows]
        add_rows(acc_partial, targets, out_partial * success[:, :, None])
        add_rows(acc_count, targets, out_count * success)
        if extrema:
            fold_columns(ufuncs, out_extrema, acc_extrema[rows])
            scatter_columns(
                ufuncs,
                acc_extrema,
                targets,
                np.where(success[:, :, None], out_extrema, neutral),
            )
        to_base = targets == base_row
        if objects:
            # T parents take their children's partials in wave order.
            position, column = np.nonzero(
                success & (~is_m[targets] & ~to_base)[:, None]
            )
            append_cells(
                tree_inboxes,
                (targets[position] * num_epochs + column).tolist(),
                pick_cells(out_objects, position * num_epochs + column),
            )
        position, column = np.nonzero(success & to_base[:, None])
        # Per slot, its column over the delivered cells; then per cell, its
        # leaves in slot order.
        by_slot = in_slot_order(
            kinds,
            out_partial[position, column].T.tolist(),
            out_extrema[position, column].T.tolist(),
            pick_cells(out_objects, position * num_epochs + column),
        )
        for leaves, at in zip(zip(*by_slot), column.tolist()):
            base_partials[at].append(leaves)
        if has_m:
            position, column = np.nonzero(
                success & (is_m[targets] & ~to_base)[:, None]
            )
            frontier.append(
                (
                    out_partial[position, column],
                    out_extrema[position, column],
                    out_count[position, column],
                    sender_ids[rows[position]],
                    column,
                    targets[position],
                    pick_cells(out_objects, position * num_epochs + column),
                )
            )

    # -- reporters: M nodes whose payload carries their own statistic ------
    reporter_rows, expected = layout.reporter_rows
    missing = np.maximum(0, expected[:, None] - acc_count[reporter_rows])
    reporter_of_row = np.full(base_row, -1, dtype=np.int64)
    reporter_of_row[reporter_rows] = np.arange(len(reporter_rows))
    flag_words = -(-len(reporter_rows) // 32)

    # -- pass 2: the delta, level by level over M nodes only ---------------
    wave = RowWave(
        accountant, base_row, num_epochs, sections, flag_words, extrema, objects
    )
    if has_m:
        # -- frontier: one batched conversion per block --------------------
        # An extremum column converts by identity: it lands as it is.
        (
            cell_partials,
            cell_extrema,
            cell_counts,
            cell_senders,
            cell_columns,
            cell_parents,
        ) = (
            np.concatenate([part[field] for part in frontier]) for field in range(6)
        )
        converted = (
            scheme._convert_frontier(
                cell_partials, cell_counts, cell_senders, epochs[cell_columns]
            )
            if len(t_rows)
            else None
        )
        converted_objects = [
            leaf.convert_block(
                [cell for part in frontier for cell in part[6][slot]],
                cell_senders.tolist(),
                epochs[cell_columns].tolist(),
            )
            for slot, leaf in enumerate(objects)
        ]
        del frontier

        def delta_locals(nodes, epochs, blocks):
            fm_blocks, ext_blocks, obj_blocks = split_kinds(kinds, blocks)
            return (
                # The piggyback's Count reads no reading.
                local_rows(
                    section_columns, nodes, epochs, fm_blocks + [None], wave.width
                ),
                # An extremum leaf's synopsis is its tree partial.
                leaf_columns(extrema, nodes, epochs, ext_blocks, np.float64),
                [
                    leaf.synopsis_local_block(nodes, epochs, values)
                    for leaf, values in zip(objects, obj_blocks)
                ],
            )

        deltas, m_nodes = level_senders(levels, is_m)
        cell_bytes = (
            4 * wave.width + 8 * len(extrema) + OBJECT_CELL_BYTES * len(objects)
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
                if extrema:
                    wave.fold_extrema(keys, cell_extrema[in_tile])
                if objects:
                    # Converted T children land first, in wave order.
                    picks = in_tile.tolist()
                    append_cells(
                        wave.inboxes,
                        keys.tolist(),
                        [[values[i] for i in picks] for values in converted_objects],
                    )
                    for values in converted_objects:
                        for i in picks:
                            values[i] = None
            m_locals = level_locals(
                slots, readings, m_nodes, epoch_list[lo:hi], cell_bytes, delta_locals
            )
            for (level, success, positions), (built, span) in zip(
                deltas, m_locals
            ):
                packed, local_extrema, local_objects = built
                level_is_m = is_m[level.rows]
                rows = level.rows[positions]
                local = packed[span]
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
                    local_extrema[span],
                    [
                        # (node, epoch) order, from the block's (epoch, node).
                        [
                            cell
                            for cells in zip(*(row[span] for row in block))
                            for cell in cells
                        ]
                        for block in local_objects
                    ],
                    layout.multipath_attempts,
                    # Pair senders as positions among the level's M nodes.
                    (np.cumsum(level_is_m) - 1)[level.pair_item[scatter]],
                    level.recv_rows[scatter],
                    success[scatter],
                )

    # -- billing, ground truth, base station -------------------------------
    tree_attempts = layout.tree_attempts
    if len(t_rows):
        # FM and extremum partials have a constant wire size, plus the exact
        # count; object partials add their own, cell by cell.
        tree_words = 1 + sum(
            int(leaf.tree_words(leaf.tree_empty())) for leaf in fm_leaves + extrema
        )
        wave.bill(
            t_rows,
            tree_words + object_words[t_rows] if objects else np.int64(tree_words),
            tree_attempts,
        )

    deliveries = np.zeros(num_epochs, dtype=np.int64)
    for _, success in levels:
        deliveries += success.sum(axis=0)
    if has_m:
        records = []
        for level, success in levels:
            # A tree unicast lands whatever its parent's mode; a broadcast
            # only counts where an M node listened.
            heard = ~is_m[level.rows][level.pair_item] | is_m[level.recv_rows]
            records.append(
                (
                    level.rows,
                    success & heard[:, None],
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
        sum(len(level.recv_rows) for level, _ in levels),
        deliveries,
    )

    channel.reset_log()
    channel.account_rows(
        sender_ids, wave.row_words[:base_row], wave.row_messages[:base_row]
    )

    reporter_nodes = sender_ids[reporter_rows].tolist()
    bounds = np.cumsum([0] + sections).tolist()
    results: List[Tuple[EpochOutcome, TransmissionLog]] = []
    for column, log in enumerate(logs):
        synopsis = count_sketch = missing_stats = None
        exact_count = int(acc_count[base_row, column])
        if base_is_m:
            row = wave.base_rows[column]
            if wave.heard_base[column]:
                sketches = [
                    sketch_from_row(row[start:stop])
                    for start, stop in zip(bounds, bounds[1:])
                ]
                if piggyback is not None:
                    count_sketch = sketches.pop()
                synopsis = aggregate.from_leaves(
                    iter(
                        in_slot_order(
                            kinds,
                            sketches,
                            wave.base_extrema[column].tolist(),
                            [fused[column] for fused in wave.base_objects],
                        )
                    )
                )
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
            layout,
            epoch_list[column],
            channel.chaos,
            [aggregate.from_leaves(iter(leaves)) for leaves in base_partials[column]],
            exact_count,
            synopsis,
            count_sketch,
            int(contributing[column]),
            missing_stats or None,
        )
        results.append((outcome, log))
    return results


def add_rows(dest: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(dest, rows, values)`` over the leading axis of a
    C-contiguous ``dest``, as one scatter of its cells: ``add.at`` over
    sub-arrays pays per row about what a flat one pays per cell."""
    width = dest[0].size
    cells = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(dest.reshape(-1), cells, values.reshape(-1))


def pick_cells(columns: List[list], cells: np.ndarray) -> List[list]:
    """Each object column's values at the flat ``(node, epoch)`` ``cells``."""
    if not columns:
        return []
    picks = cells.tolist()
    return [[values[cell] for cell in picks] for values in columns]


def merge_cells(leaf, inbox: Dict[int, list], rows: np.ndarray, local) -> list:
    """One object slot's T cells of a level, flat in ``(node, epoch)``
    order: each ``local[epoch][node]`` partial merged with its inbox (the
    children's partials, keyed ``row * epochs + epoch``) left to right, as
    the oracle's tree node does."""
    merge = leaf.tree_merge
    num_epochs = len(local)
    cells = []
    for position, row in enumerate(rows.tolist()):
        first = row * num_epochs
        for column in range(num_epochs):
            partial = local[column][position]
            for received in inbox.pop(first + column, ()):
                partial = merge(partial, received)
            cells.append(partial)
    return cells
