"""TAG: tree-based in-network aggregation (the paper's tree baseline).

TAG is the all-T layout of the one wave (:mod:`repro.core.wave`): each epoch
proceeds level by level from the deepest tree level toward the root, every
node merging its children's partial results into its own local partial and
unicasting to its parent. A lost message drops the entire subtree from the
answer — the communication-error behaviour that motivates the whole paper.

``attempts`` models TinyDB-style retransmissions (Figure 9b lets tree nodes
retransmit twice, i.e. ``attempts=3``); the default, like the original
TinyDB implementation the paper follows, is no retransmission.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.aggregates.base import Aggregate, merge_all
from repro.core.wave import LayoutWave, WaveLayout, empty_outcome, outcome_extra
from repro.errors import ConfigurationError
from repro.kernels.td import run_td_block as run_tag_block
from repro.network.links import Channel, TransmissionLog
from repro.network.placement import BASE_STATION, Deployment, NodeId
from repro.network.simulator import EpochOutcome, ReadingFn, exact_over
from repro.tree.structure import Tree


def _level_groups(levels: Dict[NodeId, int]) -> List[List[NodeId]]:
    """Deepest-first transmission schedule: one sorted node list per level.

    Ties within a level are broken by node id for determinism; the base
    station (level 0) only listens, so it never appears.
    """
    grouped: Dict[int, List[NodeId]] = {}
    for node, level in levels.items():
        if node != BASE_STATION:
            grouped.setdefault(level, []).append(node)
    return [sorted(grouped[level]) for level in sorted(grouped, reverse=True)]


class TagScheme(LayoutWave):
    """Tree aggregation over a spanning tree."""

    def __init__(
        self,
        deployment: Deployment,
        tree: Tree,
        aggregate: Aggregate,
        attempts: int = 1,
        name: str = "TAG",
        use_batch: bool = True,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("attempts must be at least 1")
        super().__init__(deployment, aggregate, use_batch, name)
        self._attempts = attempts
        self.replace_tree(tree)

    @property
    def tree(self) -> Tree:
        return self._tree

    def replace_tree(self, tree: Tree) -> None:
        """Adopt a maintained tree (Section 2's parent switching [24]).

        TAG aggregation is stateless between epochs, so swapping the
        routing tree between waves is safe; the next epoch simply follows
        the new parents. The all-T layout and the depth are recomputed —
        here, once per tree, not per block.
        """
        levels = tree.levels()
        self._tree = tree
        self._depth = max(levels.values(), default=0)
        self._layout = WaveLayout.build(
            _level_groups(levels), (), tree.parents, {}, self._attempts
        )

    def on_membership_change(self, update) -> None:
        """Adopt the repaired tree and live population after node churn.

        TAG aggregation is stateless between epochs, so churn repair is
        just :meth:`replace_tree` over the repaired routing tree plus a new
        ground-truth population (dead sensors produce no readings; stranded
        ones still count in the truth but are gone from the tree).
        """
        self.replace_tree(update.tree)
        self._alive_sensors = update.alive_sensors()

    @property
    def latency_epochs(self) -> int:
        """Latency proxy: number of level-by-level forwarding steps."""
        return self._depth

    def _wave_layout(self) -> WaveLayout:
        return self._layout

    def run_epoch(
        self, epoch: int, channel: Channel, readings: ReadingFn
    ) -> EpochOutcome:
        """The scalar reference wave: one node, one draw at a time."""
        return self._run_wave(self._layout, epoch, channel, readings, None, None)

    def run_epochs(
        self, epochs: Sequence[int], channel: Channel, readings: ReadingFn
    ) -> List[Tuple[EpochOutcome, TransmissionLog]]:
        """A block of epochs; see :meth:`LayoutWave._run_blocks`."""
        return self._run_blocks(epochs, channel, readings, run_tag_block)

    def _evaluate_base_station(
        self,
        epoch,
        chaos,
        partials,
        exact_count,
        synopsis,
        count_sketch,
        contributing,
        missing_stats,
    ) -> EpochOutcome:
        """The root's merged partial; the exact count is its own estimate."""
        aggregate = self._aggregate
        extra = {"latency_epochs": self._depth}
        if not partials:
            return empty_outcome(aggregate, extra)
        return EpochOutcome(
            estimate=aggregate.tree_eval(merge_all(aggregate, partials)),
            contributing=contributing,
            contributing_estimate=float(exact_count),
            extra=outcome_extra(aggregate, extra),
        )

    def exact_answer(self, epoch: int, readings: ReadingFn) -> float:
        return exact_over(self._aggregate, readings, self._alive_sensors, epoch)

    def adapt(self, epoch: int, outcome: EpochOutcome) -> None:
        """TAG does not adapt its aggregation mode (parent re-selection for
        link quality is a topology-maintenance concern handled offline)."""
