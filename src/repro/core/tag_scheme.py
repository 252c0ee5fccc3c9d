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

from repro.aggregates.base import Aggregate
from repro.core.wave import LayoutWave, WaveLayout
from repro.errors import ConfigurationError
from repro.kernels.td import run_td_block as run_tag_block
from repro.network.links import Channel, TransmissionLog
from repro.network.placement import Deployment
from repro.network.simulator import EpochOutcome, ReadingFn, exact_over
from repro.tree.structure import Tree


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
        level_nodes = tree.level_groups()
        self._tree = tree
        self._depth = len(level_nodes)
        self._layout = WaveLayout.build(
            level_nodes, (), tree.parents, {}, self._attempts
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
        return self._run_wave(self._layout, epoch, channel, readings)

    def run_epochs(
        self, epochs: Sequence[int], channel: Channel, readings: ReadingFn
    ) -> List[Tuple[EpochOutcome, TransmissionLog]]:
        """A block of epochs; see :meth:`LayoutWave._run_blocks`."""
        return self._run_blocks(epochs, channel, readings, run_tag_block)

    def _outcome_extra(self, layout, missing_stats) -> Dict[str, object]:
        return {"latency_epochs": self._depth}

    def exact_answer(
        self, epochs: Sequence[int], readings: ReadingFn
    ) -> List[Tuple[float, Dict[str, object]]]:
        return exact_over(self._aggregate, readings, self._alive_sensors, epochs)

    def adapt(self, epoch: int, outcome: EpochOutcome) -> None:
        """TAG does not adapt its aggregation mode (parent re-selection for
        link quality is a topology-maintenance concern handled offline)."""

    def checkpoint_state(self) -> Dict[str, object]:
        """The tree (repaired or maintained) and the live population."""
        return {
            "kind": "tag",
            "tree": self._tree.to_jsonable(),
            "alive": list(self._alive_sensors),
        }

    def restore_state(self, state: Dict[str, object], membership=None) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self.replace_tree(Tree.from_jsonable(state["tree"]))
        self._alive_sensors = list(state["alive"])
