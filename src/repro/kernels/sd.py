"""The packed OR-wave: the delta pass of the fused kernel.

For packable aggregates (``synopsis_packable``) every multi-path payload of
a block is one row of a uint32 matrix: the aggregate synopsis's packed
bitmap words, then the piggybacked contributing-count sketch's words (when
the aggregate needs one), then a plain bitmap of missing-statistics
reporters. Fusion is bitwise OR and ODI, so a level's deliveries may be
OR-reduced in any grouping: a level's wave scatters only its delivered
``(pair, epoch)`` cells into the receivers' accumulator cells
(:func:`or_sorted`, one pass per fan-in rank), and wire sizing is one
vectorized RLE pass per level (:func:`repro.multipath.fm.rle_words_rows`
reproduces :func:`repro.multipath.fm._packed_rle_words` exactly).

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

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.multipath.fm import (
    DEFAULT_BITS,
    rle_words_rows,
    single_item_matrix_block,
)
from repro.network.links import Channel, DeliveryPlan, TransmissionLog
from repro.network.messages import missing_stats_words
from repro.network.placement import BASE_STATION, NodeId
from repro.network.simulator import gather_readings

#: uint32 words one accumulator row holds per epoch tile: a tile spans
#: ``TILE_ROW_WORDS // row width`` epoch columns (32 for the paper's
#: 40 + 40-bitmap Sum rows). Small enough that a 600-node tile and its
#: per-level gather stay in a few megabytes, large enough that numpy's
#: per-call overhead does not show.
TILE_ROW_WORDS = 2560


@dataclass(frozen=True)
class LevelPairs:
    """One level's planned deliveries in row coordinates.

    Attributes:
        nodes: the level's senders, in wave order.
        rows: their accumulator rows (one contiguous span).
        success: ``(pairs, epochs)`` planned delivery outcomes.
        span_starts, span_stops: each sender's slice of the pair axis.
        pair_item: each pair's sender, as a position in ``nodes``.
        recv_rows: each pair's receiver row.
    """

    nodes: Sequence[NodeId]
    rows: np.ndarray
    success: np.ndarray
    span_starts: np.ndarray
    span_stops: np.ndarray
    pair_item: np.ndarray
    recv_rows: np.ndarray


def level_pairs(
    plan: DeliveryPlan,
    channel: Channel,
    skeletons,
    level_nodes: Sequence[Sequence[NodeId]],
) -> Tuple[Dict[NodeId, int], List[LevelPairs]]:
    """Row index and per-level pair tables of a planned block.

    Rows follow the wave order — level after level, deepest first, then the
    base station. Every non-empty level is validated against the plan once
    (:meth:`DeliveryPlan.level_table`).
    """
    index: Dict[NodeId, int] = {}
    for nodes in level_nodes:
        for node in nodes:
            index[node] = len(index)
    index[BASE_STATION] = len(index)
    levels: List[LevelPairs] = []
    for level_idx, nodes in enumerate(level_nodes):
        if not nodes:
            continue
        success, spans, flat_receivers = plan.level_table(
            channel, level_idx, skeletons[level_idx]
        )
        bounds = np.array(spans, dtype=np.int64).reshape(len(nodes), 2)
        starts, stops = bounds[:, 0], bounds[:, 1]
        levels.append(
            LevelPairs(
                nodes=nodes,
                rows=np.arange(index[nodes[0]], index[nodes[0]] + len(nodes)),
                success=np.asarray(success, dtype=bool),
                span_starts=starts,
                span_stops=stops,
                pair_item=np.repeat(np.arange(len(nodes)), stops - starts),
                recv_rows=np.fromiter(
                    (index[receiver] for receiver in flat_receivers),
                    dtype=np.int64,
                    count=len(flat_receivers),
                ),
            )
        )
    return index, levels


def fm_sections(scheme) -> Tuple[int, int]:
    """Bitmap counts of a scheme's ``[synopsis | contributing-count]`` row.

    The second is 0 when the synopsis already counts contributors (Count)
    and no piggybacked sketch travels.
    """
    aggregate = scheme._aggregate
    return (
        aggregate.synopsis_packable()[0],
        0 if aggregate.synopsis_counts_contributors() else scheme._count_bitmaps,
    )


def local_rows(
    aggregate,
    contrib_bitmaps: int,
    nodes: Sequence[NodeId],
    epochs: Sequence[int],
    readings,
    width: int,
) -> np.ndarray:
    """The ``(node, epoch, width)`` local payload rows of one level.

    ``[synopsis | contributing-count sketch]`` are filled from the same
    vectorized FM passes as the object builders; words past them are zero.
    """
    num_nodes, num_epochs = len(nodes), len(epochs)
    syn_bitmaps = aggregate.synopsis_packable()[0]
    local = np.zeros((num_nodes, num_epochs, width), dtype=np.uint32)
    local[:, :, :syn_bitmaps] = np.asarray(
        aggregate.synopsis_local_block_packed(
            nodes,
            epochs,
            [gather_readings(readings, nodes, epoch) for epoch in epochs],
        )
    ).reshape(num_epochs, num_nodes, syn_bitmaps).transpose(1, 0, 2)
    if contrib_bitmaps:
        local[:, :, syn_bitmaps : syn_bitmaps + contrib_bitmaps] = (
            single_item_matrix_block(
                contrib_bitmaps, DEFAULT_BITS, ("contrib",), nodes, epochs
            )
            .reshape(num_epochs, num_nodes, contrib_bitmaps)
            .transpose(1, 0, 2)
        )
    return local


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
    values = values[order if rows is None else rows[order]]
    lo = 0
    for hi in np.cumsum(np.bincount(rank)).tolist():
        dest[keys[lo:hi]] |= values[lo:hi]
        lo = hi


class RowWave:
    """A block of OR-waves over packed ``(node, epoch)`` rows.

    A row is ``[section 0 | section 1 | ... | flags]`` uint32 words: each
    section (a width of 0 means absent) an FM bitmap vector billed by its
    RLE size, the trailing ``flag_words`` a plain bitmap billed
    :func:`missing_stats_words` per set bit. The wave owns the block's
    tallies (per-epoch words/messages, per-row load, the base station's
    fused rows) and, inside :meth:`tiles`, one epoch tile's accumulator.
    """

    def __init__(
        self,
        accountant,
        base_row: int,
        num_epochs: int,
        sections: Sequence[int],
        flag_words: int = 0,
    ) -> None:
        self._accountant = accountant
        self._base_row = base_row
        self._sections = tuple(bitmaps for bitmaps in sections if bitmaps)
        self._flag_words = flag_words
        self.width = sum(sections) + flag_words
        self.words_sent = np.zeros(num_epochs, dtype=np.int64)
        self.messages_sent = np.zeros(num_epochs, dtype=np.int64)
        self.row_words = np.zeros(base_row + 1, dtype=np.int64)
        self.row_messages = np.zeros(base_row + 1, dtype=np.int64)
        #: Whether any multi-path payload reached the base, per epoch.
        self.heard_base = np.zeros(num_epochs, dtype=bool)
        #: The base station's fused row per epoch, saved tile by tile.
        self.base_rows = np.zeros((num_epochs, self.width), dtype=np.uint32)
        self.acc = np.zeros((0, 0), dtype=np.uint32)
        self._lo = self._hi = 0

    def tiles(self) -> Iterator[Tuple[int, int]]:
        """Sweep the block in epoch tiles ``[lo, hi)``.

        Each step opens a zeroed accumulator ``acc`` (rows x flattened
        ``(epoch, word)`` columns of the tile); when the caller comes back
        for the next tile, the base station's rows are saved first.
        """
        num_epochs = len(self.words_sent)
        step = max(1, TILE_ROW_WORDS // self.width)
        for lo in range(0, num_epochs, step):
            hi = min(lo + step, num_epochs)
            self._lo, self._hi = lo, hi
            self.acc = np.zeros(
                (self._base_row + 1, (hi - lo) * self.width), dtype=np.uint32
            )
            yield lo, hi
            self.base_rows[lo:hi] = self.acc[self._base_row].reshape(
                hi - lo, self.width
            )

    def level(
        self,
        rows: np.ndarray,
        local: np.ndarray,
        attempts: int,
        pair_sender: np.ndarray,
        pair_rows: np.ndarray,
        success: np.ndarray,
    ) -> None:
        """One level's senders for the open tile: fuse, size, bill, scatter.

        ``local`` holds the senders' ``(sender, tile epoch, width)`` local
        rows and is fused in place. Pair ``p`` hands sender
        ``pair_sender[p]``'s payload to accumulator row ``pair_rows[p]`` in
        the epochs where the block-wide ``success[p]`` is set; pairs whose
        receiver ignores the payload are simply not listed.
        """
        spec_for_words = self._accountant.spec_for_words
        num_nodes, num_epochs, width = local.shape
        cells = num_nodes * num_epochs
        columns = slice(self._lo, self._hi)
        local |= self.acc[rows].reshape(local.shape)

        words = np.zeros((num_nodes, num_epochs), dtype=np.int64)
        offset = 0
        for bitmaps in self._sections:
            words += rle_words_rows(
                local[:, :, offset : offset + bitmaps].reshape(cells, bitmaps),
                32,
            ).reshape(num_nodes, num_epochs)
            offset += bitmaps
        if self._flag_words:
            flags = np.ascontiguousarray(local[:, :, offset:]).view(np.uint8)
            words += missing_stats_words(
                np.unpackbits(flags, axis=2).sum(axis=2, dtype=np.int64)
            )
        unique_words = np.unique(words)
        unique_messages = np.fromiter(
            (spec_for_words(int(value)).messages for value in unique_words),
            dtype=np.int64,
            count=len(unique_words),
        )
        messages = unique_messages[np.searchsorted(unique_words, words)]
        self.words_sent[columns] += attempts * words.sum(axis=0)
        self.messages_sent[columns] += attempts * messages.sum(axis=0)
        self.row_words[rows] += attempts * words.sum(axis=1)
        self.row_messages[rows] += attempts * messages.sum(axis=1)

        if not len(pair_rows):
            return
        success = success[:, columns]
        order = np.argsort(pair_rows, kind="stable")
        # Delivered cells only, epoch by epoch over receiver-sorted pairs:
        # equal (receiver, epoch) keys come out adjacent.
        epoch, pair = np.nonzero(success[order].T)
        pair = order[pair]
        or_sorted(
            self.acc.reshape(-1, width),
            pair_rows[pair] * num_epochs + epoch,
            local.reshape(-1, width),
            pair_sender[pair] * num_epochs + epoch,
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
