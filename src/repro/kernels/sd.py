"""The packed OR-wave: the delta pass of the fused kernel.

Every multi-path payload of a block is one row of a uint32 matrix plus a
few float64 columns. The row holds one section per FM column (a leaf's
:class:`~repro.aggregates.base.FMColumn` declaration) — each FM leaf slot
of the query's packed bitmap words, then the piggybacked
:class:`~repro.aggregates.count.ContributingCount`'s (when the query needs
one) — then a plain bitmap of missing-statistics reporters. The kernel
builds a section's local rows itself from the declaration (:func:`fm_rows`:
a reading's weight in keyed virtual items, none in a cell a WHERE mask
rejects). Beside the row, each Min/Max leaf slot
(:class:`~repro.aggregates.base.ExtremumColumn`) is one float64 *extremum
column*, and each leaf declaring no column (heavy hitters, quantiles, ...)
one *object column*: per cell an inbox of the leaf's own synopses, fused a
level at a time through ``synopsis_fuse_level``.
Fusion is bitwise OR on the row and ``np.maximum`` / ``np.minimum`` on the
columns, all ODI, so a level's deliveries may be reduced in any grouping: a
level's wave scatters only its delivered ``(pair, epoch)`` cells into the
receivers' accumulator cells (:func:`or_sorted`, one pass per fan-in rank;
:func:`scatter_columns` for the extrema), and wire sizing is one vectorized
RLE pass per level over all FM sections at once
(:func:`repro.multipath.fm.rle_words_sections`; each section is sized as
:func:`repro.multipath.fm._packed_rle_words` sizes its sketch) plus the
extrema's constant words. An object column's fusion need not be order-free (heavy
hitters' is not), so its inboxes keep the oracle's order and the
leaf sizes its own fused synopses.

:class:`RowWave` is that per-level step — local rows, OR with the
accumulator, RLE sizing, billing, OR-scatter — plus the block's tallies.
The kernel (:mod:`repro.kernels.td`) runs a layout's M nodes through it
after its tributaries have been added up; under SD's all-M layout that is
every node. Epoch columns are independent, so a block is swept in **epoch
tiles** sized from the row width (:data:`TILE_ROW_WORDS`): the accumulator
and the per-level gather temporaries are bounded by the tile, not by the
block.

The object path's ground-truth ``contributors`` bitmask (who reached the
base over *any* path) is recovered without objects: a node's bit is set iff
some chain of successful deliveries links it to the base station, which a
reverse (shallowest-level-first) reachability sweep over the same planned
success tables computes exactly (:func:`count_contributors`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.aggregates.base import FMColumn
from repro.multipath.fm import (
    block_columns,
    counted_matrix,
    rle_words_sections,
    single_item_matrix,
    single_item_matrix_block,
)
from repro.network.links import TransmissionLog
from repro.network.messages import missing_stats_words
from repro.network.placement import NodeId

#: uint32 words one accumulator row holds per epoch tile: a tile spans
#: ``TILE_ROW_WORDS // row width`` epoch columns (32 for the paper's Sum
#: rows, an 80-word synopsis and piggyback). Small enough that a 600-node
#: tile and its per-level gather stay in a few megabytes, large enough that
#: numpy's per-call overhead does not show.
TILE_ROW_WORDS = 2560


def fm_counts(column: FMColumn, nodes: Sequence[NodeId], readings) -> np.ndarray:
    """An FM column's item count per cell of a float64 ``(epochs, nodes)``
    readings block, as int64: ``weight`` of each reading the mask accepts
    (1 without a weight), 0 on each rejected cell. This is also the cell's
    tree partial. Only accepted readings are weighed, so a rejected cell's
    reading never raises."""
    weight = column.weight
    if column.mask is None:
        if weight is None:
            return np.ones(readings.shape, dtype=np.int64)
        return weight(readings)
    accepted = column.mask(nodes, readings)
    counts = accepted.astype(np.int64)
    if weight is not None:
        counts[accepted] = weight(readings[accepted])
    return counts


def fm_rows(
    column: FMColumn, nodes: Sequence[NodeId], epochs: Sequence[int], readings
) -> np.ndarray:
    """An FM column's local synopses of a readings block as packed rows,
    epoch-major flat (row ``j * len(nodes) + i`` is node ``i`` at
    ``epochs[j]``), bit for bit ``sketch_to_row`` of the leaf's
    ``synopsis_local``. A cell holding no item is a zero row, hashed by
    neither builder."""
    label = (column.label,)
    if column.weight is None and column.mask is None:
        return single_item_matrix_block(column.bitmaps, label, nodes, epochs)
    counts = fm_counts(column, nodes, readings).reshape(-1)
    keys = block_columns(nodes, epochs)
    if column.weight is not None:
        return counted_matrix(column.bitmaps, label, counts, *keys)
    # One unkeyed item in each accepted cell.
    rows = np.zeros((len(counts), column.bitmaps), dtype="<u4")
    kept = counts > 0
    if kept.any():
        rows[kept] = single_item_matrix(
            column.bitmaps, label, *(key[kept] for key in keys)
        )
    return rows


def local_rows(
    columns: Sequence[FMColumn],
    nodes: Sequence[NodeId],
    epochs: Sequence[int],
    blocks: Sequence[np.ndarray],
    width: int,
) -> np.ndarray:
    """The ``(node, epoch, width)`` local payload rows of one level.

    One section per FM column, filled from its ``(epochs, nodes)``
    readings block by :func:`fm_rows`; words past them are zero.
    """
    num_nodes, num_epochs = len(nodes), len(epochs)
    local = np.zeros((num_nodes, num_epochs, width), dtype=np.uint32)
    offset = 0
    for column, block in zip(columns, blocks):
        bitmaps = column.bitmaps
        local[:, :, offset : offset + bitmaps] = (
            fm_rows(column, nodes, epochs, block)
            .reshape(num_epochs, num_nodes, bitmaps)
            .transpose(1, 0, 2)
        )
        offset += bitmaps
    return local


def append_cells(
    inboxes: Sequence[Dict[int, list]], keys: Sequence[int], values: Sequence[list]
) -> None:
    """Append ``values[k][i]`` to ``inboxes[k][keys[i]]``, in order: the
    object columns' delivery."""
    for inbox, column in zip(inboxes, values):
        for key, value in zip(keys, column):
            if key in inbox:
                inbox[key].append(value)
            else:
                inbox[key] = [value]


def fold_columns(ufuncs, dest: np.ndarray, values: np.ndarray) -> None:
    """``dest[..., k] = ufuncs[k](dest[..., k], values[..., k])``, in place."""
    for column, ufunc in enumerate(ufuncs):
        ufunc(dest[..., column], values[..., column], out=dest[..., column])


def scatter_columns(ufuncs, dest: np.ndarray, index, values: np.ndarray) -> None:
    """``ufuncs[k].at(dest[..., k], index, values[..., k])`` for every column
    ``k``: the extremum twin of ``np.add.at`` and :func:`or_sorted`. Min and
    max over order-free values (no NaN, no ``-0.0``) land alike in any
    order."""
    for column, ufunc in enumerate(ufuncs):
        ufunc.at(dest[..., column], index, values[..., column])


def or_sorted(dest, keys, values, rows=None) -> None:
    """``dest[keys[i]] |= values[rows[i]]`` (``rows`` defaults to ``i``).

    Equal keys must be adjacent (sorted keys are). OR is ODI, so cells may
    land in any grouping: a cell's *rank* — how many equal keys precede it
    — picks its pass, and no pass holds a key twice, so each is a plain
    ``dest[keys] |= values`` scatter; the fan-in bounds the passes.
    """
    index = np.arange(len(keys))
    group_start = np.ones(len(keys), dtype=bool)
    group_start[1:] = keys[1:] != keys[:-1]
    rank = index - np.maximum.accumulate(np.where(group_start, index, 0))
    # Small unsigned ranks sort by radix.
    order = np.argsort(rank.astype(np.min_scalar_type(len(keys))), kind="stable")
    keys = keys[order]
    # Gathered pass by pass: a wide row's values are never copied whole.
    picks = order if rows is None else rows[order]
    lo = 0
    for hi in np.cumsum(np.bincount(rank)).tolist():
        dest[keys[lo:hi]] |= values[picks[lo:hi]]
        lo = hi


class RowWave:
    """A block of OR-waves over packed ``(node, epoch)`` rows.

    A row is ``[section 0 | section 1 | ... | flags]`` uint32 words: each
    section (a width of 0 means absent) an FM bitmap vector billed by its
    RLE size, the trailing ``flag_words`` a plain bitmap billed
    :func:`missing_stats_words` per set bit. Beside it, each of the
    ``extrema`` leaves (an :class:`~repro.aggregates.base.ExtremumColumn`)
    is one float64 column, reduced by its ufunc wherever the row is OR-ed
    and billed its constant synopsis words; each of the ``objects`` leaves
    is one object column, whose cells collect their synopses in the open
    tile's ``inboxes`` (keyed ``row * tile epochs + epoch``) and fuse them
    in :meth:`level`. The wave owns the block's
    tallies (per-epoch words/messages, per-row load, the base station's
    fused rows, extrema and object synopses) and, inside :meth:`tiles`,
    one epoch tile's accumulators.
    """

    def __init__(
        self,
        accountant,
        base_row: int,
        num_epochs: int,
        sections: Sequence[int],
        flag_words: int = 0,
        extrema: Sequence = (),
        objects: Sequence = (),
    ) -> None:
        self._accountant = accountant
        self._base_row = base_row
        self._sections = tuple(bitmaps for bitmaps in sections if bitmaps)
        self._flag_words = flag_words
        columns = [leaf.column() for leaf in extrema]
        self._ufuncs = [column.ufunc for column in columns]
        self._neutral = np.array(
            [column.neutral for column in columns], dtype=np.float64
        )
        self._extremum_words = sum(
            int(leaf.synopsis_words(leaf.synopsis_empty())) for leaf in extrema
        )
        self._objects = tuple(objects)
        self.width = sum(sections) + flag_words
        self.words_sent = np.zeros(num_epochs, dtype=np.int64)
        self.messages_sent = np.zeros(num_epochs, dtype=np.int64)
        self.row_words = np.zeros(base_row + 1, dtype=np.int64)
        self.row_messages = np.zeros(base_row + 1, dtype=np.int64)
        #: Whether any multi-path payload reached the base, per epoch.
        self.heard_base = np.zeros(num_epochs, dtype=bool)
        #: The base station's fused row per epoch, saved tile by tile.
        self.base_rows = np.zeros((num_epochs, self.width), dtype=np.uint32)
        #: The base station's fused extremum columns per epoch.
        self.base_extrema = np.empty((num_epochs, len(self._ufuncs)))
        #: Per object leaf, the base station's fused synopsis per epoch
        #: (None where no multi-path payload arrived).
        self.base_objects: List[list] = [[None] * num_epochs for _ in objects]
        self.acc = np.zeros((0, 0), dtype=np.uint32)
        self.extrema = np.empty((0, 0, len(self._ufuncs)))
        self.inboxes: List[Dict[int, list]] = []
        self._lo = self._hi = 0

    def tiles(self) -> Iterator[Tuple[int, int]]:
        """Sweep the block in epoch tiles ``[lo, hi)``.

        Each step opens a zeroed accumulator ``acc`` (rows x flattened
        ``(epoch, word)`` columns of the tile), a neutral ``extrema`` one
        (rows x tile epochs x extremum columns) and empty object
        ``inboxes``; when the caller comes back for the next tile, the base
        station's cells are saved first.
        """
        num_epochs = len(self.words_sent)
        step = max(1, TILE_ROW_WORDS // self.width)
        for lo in range(0, num_epochs, step):
            hi = min(lo + step, num_epochs)
            self._lo, self._hi = lo, hi
            # Release the closed tile before the next one is allocated.
            self.acc = self.extrema = None
            self.acc = np.zeros(
                (self._base_row + 1, (hi - lo) * self.width), dtype=np.uint32
            )
            self.extrema = np.empty(
                (self._base_row + 1, hi - lo, len(self._ufuncs))
            )
            self.extrema[...] = self._neutral
            self.inboxes = [{} for _ in self._objects]
            yield lo, hi
            self.base_rows[lo:hi] = self.acc[self._base_row].reshape(
                hi - lo, self.width
            )
            self.base_extrema[lo:hi] = self.extrema[self._base_row]
            # The base station fuses each epoch's inbox as the tile closes.
            first = self._base_row * (hi - lo)
            for leaf, inbox, saved in zip(
                self._objects, self.inboxes, self.base_objects
            ):
                heard = [
                    column for column in range(hi - lo) if first + column in inbox
                ]
                if heard:
                    fused, _ = leaf.synopsis_fuse_level(
                        [inbox[first + column] for column in heard]
                    )
                    for column, synopsis in zip(heard, fused):
                        saved[lo + column] = synopsis

    def bill(
        self,
        rows: np.ndarray,
        words: np.ndarray,
        attempts: int,
        columns: slice = slice(None),
    ) -> None:
        """Bill ``rows``' ``(row, epoch)`` payloads of ``words`` words, sent
        ``attempts`` times each, in the epoch ``columns``. ``words`` is a
        ``(row, epoch)`` matrix or anything that broadcasts to one (a
        constant payload is sized once)."""
        spec_for_words = self._accountant.spec_for_words
        unique_words = np.unique(words)
        unique_messages = np.fromiter(
            (spec_for_words(int(value)).messages for value in unique_words),
            dtype=np.int64,
            count=len(unique_words),
        )
        messages = unique_messages[np.searchsorted(unique_words, words)]
        num_rows, num_columns = len(rows), len(self.words_sent[columns])
        for values, per_epoch, per_row in (
            (words, self.words_sent, self.row_words),
            (messages, self.messages_sent, self.row_messages),
        ):
            if np.ndim(values) == 0:
                # A constant payload: its sums are products.
                per_epoch[columns] += attempts * values * num_rows
                per_row[rows] += attempts * values * num_columns
            else:
                values = np.broadcast_to(values, (num_rows, num_columns))
                per_epoch[columns] += attempts * values.sum(axis=0)
                per_row[rows] += attempts * values.sum(axis=1)

    def fold_extrema(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Reduce ``values[i]`` (one float per extremum column) into the
        open tile's cell ``keys[i]`` (``row * tile epochs + epoch``)."""
        scatter_columns(
            self._ufuncs, self.extrema.reshape(-1, len(self._ufuncs)), keys, values
        )

    def level(
        self,
        rows: np.ndarray,
        local: np.ndarray,
        local_extrema: np.ndarray,
        local_objects: Sequence[list],
        attempts: int,
        pair_sender: np.ndarray,
        pair_rows: np.ndarray,
        success: np.ndarray,
    ) -> None:
        """One level's senders for the open tile: fuse, size, bill, scatter.

        ``local`` holds the senders' ``(sender, tile epoch, width)`` local
        rows and ``local_extrema`` their ``(sender, tile epoch, extremum
        column)`` values; both are fused in place. ``local_objects`` holds
        per object leaf the senders' local synopses, flat in the same
        ``(sender, tile epoch)`` order: each cell fuses its inbox behind
        its local through the leaf's
        :meth:`~repro.aggregates.base.Aggregate.synopsis_fuse_level`. Pair
        ``p`` hands sender ``pair_sender[p]``'s payload to accumulator row
        ``pair_rows[p]`` in the epochs where the block-wide ``success[p]``
        is set; pairs whose receiver ignores the payload are simply not
        listed.
        """
        num_nodes, num_epochs, width = local.shape
        columns = slice(self._lo, self._hi)
        local |= self.acc[rows].reshape(local.shape)
        if self._ufuncs:
            fold_columns(self._ufuncs, local_extrema, self.extrema[rows])

        words = np.full(
            (num_nodes, num_epochs), self._extremum_words, dtype=np.int64
        )
        fused_objects = []
        if self._objects:
            own = (rows[:, None] * num_epochs + np.arange(num_epochs)).ravel()
            for leaf, inbox, cells_local in zip(
                self._objects, self.inboxes, local_objects
            ):
                fused, sizes = leaf.synopsis_fuse_level(
                    [
                        [cell, *inbox.pop(key, ())]
                        for cell, key in zip(cells_local, own.tolist())
                    ]
                )
                fused_objects.append(fused)
                words += np.asarray(sizes, dtype=np.int64).reshape(
                    num_nodes, num_epochs
                )
        offset = sum(self._sections)
        if self._sections:
            words += rle_words_sections(local[:, :, :offset], self._sections)
        if self._flag_words:
            flags = np.ascontiguousarray(local[:, :, offset:]).view(np.uint8)
            words += missing_stats_words(
                np.unpackbits(flags, axis=2).sum(axis=2, dtype=np.int64)
            )
        self.bill(rows, words, attempts, columns)

        if not len(pair_rows):
            return
        success = success[:, columns]
        order = np.argsort(pair_rows, kind="stable")
        # Delivered cells only, epoch by epoch over receiver-sorted pairs:
        # equal (receiver, epoch) keys come out adjacent.
        epoch, pair = np.nonzero(success[order].T)
        pair = order[pair]
        keys = pair_rows[pair] * num_epochs + epoch
        senders = pair_sender[pair] * num_epochs + epoch
        or_sorted(self.acc.reshape(-1, width), keys, local.reshape(-1, width), senders)
        if self._ufuncs:
            self.fold_extrema(
                keys, local_extrema.reshape(-1, len(self._ufuncs))[senders]
            )
        if fused_objects:
            picks = senders.tolist()
            append_cells(
                self.inboxes,
                keys.tolist(),
                [[fused[i] for i in picks] for fused in fused_objects],
            )
        at_base = pair_rows == self._base_row
        if at_base.any():
            self.heard_base[columns] |= success[at_base].any(axis=0)

    def logs(
        self, transmissions: int, total_pairs: int, deliveries: np.ndarray
    ) -> List[TransmissionLog]:
        """The block's per-epoch channel logs from the wave's tallies."""
        return [
            TransmissionLog(
                transmissions=transmissions,
                deliveries=delivered,
                drops=total_pairs - delivered,
                words_sent=words,
                messages_sent=messages,
            )
            for delivered, words, messages in zip(
                deliveries.tolist(),
                self.words_sent.tolist(),
                self.messages_sent.tolist(),
            )
        ]


def _any_reduce(flags, starts, stops) -> np.ndarray:
    """Per-segment any() over the rows of a ``(P, E)`` bool matrix.

    Segments are contiguous and in order but may be empty: a segment holds a
    set flag iff the running count of set flags grows across it.
    """
    running = np.zeros((flags.shape[0] + 1, flags.shape[1]), dtype=np.int64)
    np.cumsum(flags, axis=0, out=running[1:])
    return running[stops] > running[starts]


def count_contributors(base_row: int, num_epochs: int, records) -> np.ndarray:
    """Per epoch, how many senders some delivery chain links to the base.

    ``records`` lists, deepest level first, ``(rows, success, span_starts,
    span_stops, recv_rows)`` with ``success`` already cleared where the
    receiver ignored the payload. Receivers sit one level shallower than
    senders, so sweeping shallowest-first visits receivers before senders.
    """
    contributing = np.zeros(num_epochs, dtype=np.int64)
    reach = np.zeros((base_row + 1, num_epochs), dtype=bool)
    reach[base_row] = True
    for rows, success, span_starts, span_stops, recv_rows in reversed(records):
        sender_any = _any_reduce(
            success & reach[recv_rows], span_starts, span_stops
        )
        reach[rows] = sender_any
        contributing += sender_any.sum(axis=0)
    return contributing
