"""Adaptation strategies: TD-Coarse and TD (Section 4.2), plus damping.

The base station compares the (approximate) percentage of nodes contributing
to the current answer against a user-specified threshold (the paper uses
90%) and decides whether to expand or shrink the delta region:

* **TD-Coarse** — below the threshold: *all* switchable T nodes switch to M
  (the delta widens by one level); well above it: all switchable M nodes
  switch to T. Fast network-wide reaction, no spatial selectivity.
* **TD** — uses the per-subtree "nodes not contributing" statistics carried
  by switchable M nodes. Expansion targets the subtree with the *max*
  missing count (switching its children to M); shrinking switches the
  switchable M node with the *min* missing count back to T. Finer-grained,
  adapts to regional failures, converges more slowly.

:class:`DampedPolicy` implements the paper's oscillation heuristic: when the
base station sees a repeated expand/shrink alternation it reduces the
adjustment frequency (skipping a geometrically growing number of rounds).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Protocol, Tuple

from repro.core.graph import TDGraph
from repro.errors import ConfigurationError
from repro.network.placement import NodeId
from repro.network.simulator import EpochOutcome


@dataclass(frozen=True)
class AdaptationAction:
    """The outcome of one adaptation decision."""

    kind: str  # "expand" | "shrink" | "none" | "damped"
    switched: Tuple[NodeId, ...] = ()
    control_messages: int = 0


class AdaptationPolicy(Protocol):
    """Decides how to adjust the delta region after each feedback round.

    A policy whose decisions depend on earlier rounds also implements
    ``checkpoint_state()`` / ``restore_state(state)``, so a resumed run
    decides exactly as the uninterrupted one would.
    """

    def adjust(
        self, graph: TDGraph, outcome: EpochOutcome, num_sensors: int
    ) -> AdaptationAction:
        """Inspect the outcome and mutate ``graph``; report what was done."""
        ...


def _contributing_fraction(outcome: EpochOutcome, num_sensors: int) -> float:
    if num_sensors <= 0:
        return 1.0
    return outcome.contributing_estimate / num_sensors


class _SmoothedPolicy:
    """What TD-Coarse and TD share: the threshold test on a smoothed signal.

    The contributing count is an FM estimate; on small networks a single
    epoch's reading is noisy enough (sigma ~ 12% with 40 bitmaps) to flip
    expand/shrink decisions. Averaging the last ``smoothing`` feedback
    rounds is the standard estimator fix and does not change the steady
    state. That window is the policy's only evolving state, so it is what
    :meth:`checkpoint_state` saves.
    """

    def __init__(
        self,
        threshold: float = 0.9,
        shrink_margin: float = 0.05,
        smoothing: int = 3,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError("threshold must be in (0, 1]")
        if shrink_margin < 0.0:
            raise ConfigurationError("shrink_margin cannot be negative")
        if smoothing < 1:
            raise ConfigurationError("smoothing window must be at least 1")
        self.threshold = threshold
        self.shrink_margin = shrink_margin
        # maxlen evicts the oldest value in O(1); a list.pop(0) is O(n).
        self._window: Deque[float] = deque(maxlen=smoothing)

    def _direction(self, outcome: EpochOutcome, num_sensors: int) -> str:
        """``"expand"``, ``"shrink"`` or ``"none"`` for this feedback round."""
        self._window.append(_contributing_fraction(outcome, num_sensors))
        fraction = sum(self._window) / len(self._window)
        if fraction < self.threshold:
            return "expand"
        if fraction >= self.threshold + self.shrink_margin:
            return "shrink"
        return "none"

    def checkpoint_state(self) -> Dict[str, object]:
        """The smoothing window, oldest value first."""
        return {"smoother": list(self._window)}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self._window.clear()
        self._window.extend(state["smoother"])


class TDCoarsePolicy(_SmoothedPolicy):
    """Network-wide expand/shrink of the delta by whole levels."""

    def adjust(
        self, graph: TDGraph, outcome: EpochOutcome, num_sensors: int
    ) -> AdaptationAction:
        direction = self._direction(outcome, num_sensors)
        if direction == "none":
            return AdaptationAction("none")
        switched = graph.expand_all() if direction == "expand" else graph.shrink_all()
        return AdaptationAction(
            direction, tuple(switched), control_messages=1 if switched else 0
        )


class TDFinePolicy(_SmoothedPolicy):
    """Targeted adaptation using per-subtree missing counts.

    Expansion targets the subtrees with the most missing nodes. Two
    selection heuristics are provided, both from the paper's Section 4.2
    ("there are many possible heuristics to improve the adaptivity of TD,
    such as using max/2 instead of max or maintaining the top-k values
    instead of just the top-1 value"):

    * *cut mode* (default): all switchable M nodes whose subtree's missing
      count reaches ``expand_cut * max`` have their children switched from
      T to M. ``expand_cut=1.0`` is the paper's base top-1 design;
      ``expand_cut=0.5`` (the default) is its max/2 heuristic — without it,
      delta growth under a network-wide failure takes hundreds of rounds.
    * *top-k mode* (``top_k`` set): exactly the ``k`` switchable M nodes
      with the largest positive missing counts are targeted, regardless of
      how their counts compare to the maximum. Compared to the cut, top-k
      gives a fixed per-round switching budget: predictable control traffic
      at the cost of slower reaction to wide failures.

    Shrinking follows the paper exactly in both modes: "switching each
    switchable M node whose subtree has only min nodes not contributing" —
    every node tied at the minimum switches back to T.
    """

    def __init__(
        self,
        threshold: float = 0.9,
        shrink_margin: float = 0.05,
        expand_cut: float = 0.5,
        smoothing: int = 3,
        top_k: Optional[int] = None,
    ) -> None:
        super().__init__(threshold, shrink_margin, smoothing)
        if not 0.0 < expand_cut <= 1.0:
            raise ConfigurationError("expand_cut must be in (0, 1]")
        if top_k is not None and top_k < 1:
            raise ConfigurationError("top_k must be at least 1 when set")
        self.expand_cut = expand_cut
        self.top_k = top_k

    def adjust(
        self, graph: TDGraph, outcome: EpochOutcome, num_sensors: int
    ) -> AdaptationAction:
        direction = self._direction(outcome, num_sensors)
        if direction == "expand":
            return self._expand(graph, outcome)
        if direction == "shrink":
            return self._shrink(graph, outcome)
        return AdaptationAction("none")

    def _expand(self, graph: TDGraph, outcome: EpochOutcome) -> AdaptationAction:
        stats = outcome.extra.get("missing_stats")
        if not stats:
            # No delta yet (all-tree) or no statistics arrived: bootstrap by
            # switching the switchable T layer (just the root when all-tree).
            if not graph.delta_region():
                switched = graph.expand_all()
                return AdaptationAction(
                    "expand", tuple(switched), control_messages=1 if switched else 0
                )
            return AdaptationAction("none")
        peak = max(stats.values())
        if peak <= 0:
            return AdaptationAction("none")
        if self.top_k is not None:
            ranked = sorted(
                (node for node, value in stats.items() if value > 0),
                key=lambda node: (-stats[node], node),
            )
            targets = sorted(ranked[: self.top_k])
        else:
            cut = max(1.0, self.expand_cut * peak)
            targets = sorted(node for node, value in stats.items() if value >= cut)
        switched: List[NodeId] = []
        for target in targets:
            for child in graph.tree_children(target):
                if graph.is_switchable_t(child):
                    graph.switch_to_multipath(child)
                    switched.append(child)
        return AdaptationAction(
            "expand", tuple(switched), control_messages=1 if switched else 0
        )

    def _shrink(self, graph: TDGraph, outcome: EpochOutcome) -> AdaptationAction:
        stats = outcome.extra.get("missing_stats")
        if not stats:
            return AdaptationAction("none")
        # Only switchable M nodes can leave the delta; restrict to them
        # before taking the minimum ("each switchable M node whose subtree
        # has only min nodes not contributing").
        candidates = {
            node: value
            for node, value in stats.items()
            if graph.is_switchable_m(node)
        }
        if not candidates:
            return AdaptationAction("none")
        floor = min(candidates.values())
        targets = sorted(node for node, value in candidates.items() if value == floor)
        switched: List[NodeId] = []
        for target in targets:
            if graph.is_switchable_m(target):
                graph.switch_to_tree(target)
                switched.append(target)
        return AdaptationAction(
            "shrink", tuple(switched), control_messages=1 if switched else 0
        )


class DampedPolicy:
    """Oscillation damping: back off when expand/shrink alternate.

    Wraps any policy. When the last ``window`` effective actions strictly
    alternate between expansion and shrinking, the wrapper skips a growing
    number of subsequent adjustment rounds (2, 4, ... up to ``max_skip``),
    implementing "it gradually reduces the frequency of adjustments".
    """

    def __init__(
        self,
        inner: AdaptationPolicy,
        window: int = 4,
        max_skip: int = 8,
    ) -> None:
        if window < 2:
            raise ConfigurationError("window must be at least 2")
        if max_skip < 1:
            raise ConfigurationError("max_skip must be at least 1")
        self._inner = inner
        self._window = window
        self._max_skip = max_skip
        self._history: List[str] = []
        self._skip = 0
        self._last_penalty = 1

    def _oscillating(self) -> bool:
        if len(self._history) < self._window:
            return False
        recent = self._history[-self._window :]
        return all(
            recent[i] != recent[i + 1] for i in range(len(recent) - 1)
        )

    def adjust(
        self, graph: TDGraph, outcome: EpochOutcome, num_sensors: int
    ) -> AdaptationAction:
        if self._skip > 0:
            self._skip -= 1
            return AdaptationAction("damped")
        action = self._inner.adjust(graph, outcome, num_sensors)
        if action.kind in ("expand", "shrink") and action.switched:
            self._history.append(action.kind)
            if self._oscillating():
                self._last_penalty = min(self._max_skip, self._last_penalty * 2)
                self._skip = self._last_penalty
                self._history.clear()
        return action

    def checkpoint_state(self) -> Dict[str, object]:
        """Oscillation history, skip and penalty, then the inner policy's
        state (``None`` when the inner policy keeps none)."""
        inner = getattr(self._inner, "checkpoint_state", None)
        return {
            "damped": {
                "history": list(self._history),
                "skip": self._skip,
                "last_penalty": self._last_penalty,
            },
            "inner": inner() if inner is not None else None,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        damped = state["damped"]
        self._history = list(damped["history"])
        self._skip = damped["skip"]
        self._last_penalty = damped["last_penalty"]
        if state["inner"] is not None:
            self._inner.restore_state(state["inner"])
