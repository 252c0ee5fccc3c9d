"""Link-quality monitoring and topology maintenance (Section 2, ref [24]).

The paper's background section describes how both aggregation families keep
their topologies healthy between aggregation waves:

* *trees*: "each node monitors the link quality to and from its neighbors
  [24]. This is done less frequently than aggregation, in order to conserve
  energy. If the relative link qualities warrant it, a node will switch to a
  new parent with better link quality";
* *rings*: "nodes can monitor link quality and change levels as warranted".

This module provides those mechanisms for every scheme in the library:

* :class:`LinkQualityMonitor` — a per-directed-link EWMA delivery estimator.
  It can be fed passively (from the outcomes of data transmissions a node
  observes) or actively via cheap probe rounds drawn from the same
  deterministic channel the aggregation uses.
* :class:`TreeMaintainer` — periodic parent switching. Candidate parents are
  restricted to ring level i-1 neighbours, so maintained trees always keep
  the Tributary-Delta synchronisation constraint "tree links are a subset of
  the links in the ring" (Section 4.1).
* :func:`rebuild_rings` — ring-level maintenance: links whose estimated
  quality fell below a floor are dropped from the connectivity graph before
  the BFS levels are recomputed, letting badly-connected nodes move to a
  higher ring where they can still be heard.

None of this changes what the aggregation algorithms compute; it changes the
topology they run over, which is exactly how the paper frames it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.network.links import Channel
from repro.network.placement import Deployment, NodeId
from repro.network.radio import Connectivity
from repro.network.rings import RingsTopology
from repro.tree.structure import Tree

#: A directed radio link (sender, receiver).
Link = Tuple[NodeId, NodeId]

#: Probe transmissions draw channel outcomes at attempt numbers far above any
#: data attempt, so probing never perturbs the loss draws data messages see.
_PROBE_ATTEMPT_BASE = 1_000_000


class LinkQualityMonitor:
    """EWMA delivery-rate estimator per directed link.

    Each observation is a Bernoulli delivery outcome; the estimate for a link
    starts at ``prior`` (optimistic, matching a freshly-built topology whose
    links were just good enough to hear the construction broadcasts) and is
    updated as ``estimate <- (1 - alpha) * estimate + alpha * outcome``.

    Args:
        alpha: EWMA weight of the newest observation, in (0, 1].
        prior: initial delivery estimate for unobserved links.
    """

    def __init__(self, alpha: float = 0.2, prior: float = 0.9) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if not 0.0 <= prior <= 1.0:
            raise ConfigurationError("prior must be in [0, 1]")
        self._alpha = alpha
        self._prior = prior
        self._estimates: Dict[Link, float] = {}
        self._observations: Dict[Link, int] = {}

    @property
    def observed_links(self) -> List[Link]:
        """Links with at least one observation, sorted."""
        return sorted(self._estimates)

    def observation_count(self, sender: NodeId, receiver: NodeId) -> int:
        """How many outcomes have been folded into this link's estimate."""
        return self._observations.get((sender, receiver), 0)

    def observe(self, sender: NodeId, receiver: NodeId, delivered: bool) -> float:
        """Fold one delivery outcome into the link's estimate.

        Returns the updated estimate.
        """
        link = (sender, receiver)
        current = self._estimates.get(link, self._prior)
        updated = (1.0 - self._alpha) * current + self._alpha * (
            1.0 if delivered else 0.0
        )
        self._estimates[link] = updated
        self._observations[link] = self._observations.get(link, 0) + 1
        return updated

    def quality(self, sender: NodeId, receiver: NodeId) -> float:
        """Current delivery-rate estimate for the link (prior if unobserved)."""
        return self._estimates.get((sender, receiver), self._prior)

    def checkpoint_state(self) -> Dict[str, List[List[float]]]:
        """Every link's estimate and observation count, as
        ``[sender, receiver, value]`` rows."""
        return {
            "estimates": [[*link, value] for link, value in self._estimates.items()],
            "observations": [
                [*link, count] for link, count in self._observations.items()
            ],
        }

    def restore_state(self, state: Dict[str, List[List[float]]]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self._estimates = {
            (sender, receiver): value
            for sender, receiver, value in state["estimates"]
        }
        self._observations = {
            (sender, receiver): count
            for sender, receiver, count in state["observations"]
        }

    def probe_round(
        self,
        channel: Channel,
        links: Iterable[Link],
        epoch: int,
        probes_per_link: int = 1,
    ) -> int:
        """Actively probe a set of links and fold the outcomes in.

        Probes draw from the same deterministic channel as data messages but
        at reserved attempt numbers, so the loss patterns data messages see
        are unchanged. The paper notes monitoring "is done less frequently
        than aggregation, in order to conserve energy" — callers control the
        cadence; this method just performs one round.

        Returns the number of probe transmissions performed (for energy
        accounting by the caller).
        """
        if probes_per_link < 1:
            raise ConfigurationError("probes_per_link must be at least 1")
        sent = 0
        for sender, receiver in links:
            for probe in range(probes_per_link):
                attempt = _PROBE_ATTEMPT_BASE + probe
                outcome = channel.delivered(sender, receiver, epoch, attempt)
                self.observe(sender, receiver, outcome)
                sent += 1
        return sent


@dataclass(frozen=True)
class ParentSwitch:
    """One maintenance action: ``node`` re-parented from ``old`` to ``new``."""

    node: NodeId
    old_parent: NodeId
    new_parent: NodeId


class TreeMaintainer:
    """Periodic parent switching driven by link-quality estimates.

    A node switches to the upstream (ring level i-1) neighbour with the best
    estimated link quality when that estimate beats its current parent's by
    more than ``switch_margin`` — the hysteresis that keeps healthy links
    from flapping. Restricting candidates to level i-1 neighbours preserves
    the synchronisation constraint of Section 4.1, so maintained trees remain
    valid Tributary-Delta substrates.

    Args:
        rings: the rings topology that defines candidate parents.
        monitor: the link-quality estimates to act on.
        switch_margin: minimum quality improvement required to switch.
        protected: nodes that may never be re-parented (the bushy
            construction's *pinned* children, whose placement raises the
            domination factor — see Section 6.1.3).
    """

    def __init__(
        self,
        rings: RingsTopology,
        monitor: LinkQualityMonitor,
        switch_margin: float = 0.1,
        protected: Optional[Set[NodeId]] = None,
    ) -> None:
        if switch_margin < 0.0:
            raise ConfigurationError("switch_margin cannot be negative")
        self._rings = rings
        self._monitor = monitor
        self._switch_margin = switch_margin
        self._protected = set(protected or ())

    def best_parent(self, node: NodeId) -> Optional[NodeId]:
        """The upstream neighbour with the highest estimated quality."""
        candidates = self._rings.upstream_neighbors(node)
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda parent: (self._monitor.quality(node, parent), -parent),
        )

    def maintain(self, tree: Tree) -> Tuple[Tree, List[ParentSwitch]]:
        """Re-parent nodes whose best candidate clearly beats their parent.

        Returns the (possibly identical) maintained tree and the switches
        applied. The input tree is not modified.
        """
        switches: List[ParentSwitch] = []
        parents = dict(tree.parents)
        for node in sorted(parents):
            if node in self._protected:
                continue
            current = parents[node]
            if self._rings.level(node) != self._rings.level(current) + 1:
                # Foreign tree (e.g. TAG with same-level parents): leave the
                # link alone rather than guess at its schedule.
                continue
            candidate = self.best_parent(node)
            if candidate is None or candidate == current:
                continue
            gain = self._monitor.quality(node, candidate) - self._monitor.quality(
                node, current
            )
            if gain > self._switch_margin:
                parents[node] = candidate
                switches.append(ParentSwitch(node, current, candidate))
        if not switches:
            return tree, []
        return Tree(parents=parents, root=tree.root), switches


def rebuild_rings(
    deployment: Deployment,
    connectivity: Connectivity,
    monitor: LinkQualityMonitor,
    min_quality: float = 0.5,
) -> RingsTopology:
    """Recompute ring levels after dropping low-quality links.

    The paper's rings maintenance: "nodes can monitor link quality and change
    levels as warranted". We drop every radio edge whose *worse direction*
    has an estimated quality below ``min_quality``, then re-run the BFS level
    construction. Edges whose removal would disconnect a node from the base
    station are retained (a node prefers a bad ring position over no ring
    position), restoring the best such edge per stranded node.

    Returns the rebuilt :class:`RingsTopology`.
    """
    if not 0.0 <= min_quality <= 1.0:
        raise ConfigurationError("min_quality must be in [0, 1]")
    kept: List[Tuple[NodeId, NodeId]] = []
    dropped: List[Tuple[NodeId, NodeId, float]] = []
    for a, b in connectivity.edges:
        quality = min(monitor.quality(a, b), monitor.quality(b, a))
        if quality >= min_quality:
            kept.append((a, b))
        else:
            dropped.append((a, b, quality))

    # Reconnect stranded nodes through their best dropped edge.
    while True:
        pruned = Connectivity.from_edges(len(connectivity), kept)
        stranded = set(np.flatnonzero(pruned.hop_levels() < 0).tolist())
        if not stranded:
            return RingsTopology.build(deployment, pruned)
        bridges = [
            (quality, a, b)
            for a, b, quality in dropped
            if (a in stranded) != (b in stranded)
        ]
        if not bridges:
            raise ConfigurationError(
                "connectivity graph cannot reach the base station even with "
                "all links restored"
            )
        _, a, b = max(bridges)
        kept.append((a, b))


class OnlineMaintenance:
    """Periodic monitoring + parent switching wired into a running scheme.

    Implements the paper's maintenance cadence — "this is done less
    frequently than aggregation, in order to conserve energy" — as an
    :class:`~repro.network.simulator.EpochSimulator` ``on_epoch`` hook:
    every ``interval`` epochs it probes each node's candidate parent links
    and, when the estimates warrant it, re-parents the scheme's tree via
    ``scheme.replace_tree``.

    Args:
        scheme: any scheme exposing ``tree`` and ``replace_tree``
            (:class:`~repro.core.tag_scheme.TagScheme` does).
        rings: the rings topology defining candidate parents.
        monitor: the estimator to maintain (defaults to a fresh one).
        interval: epochs between maintenance rounds.
        switch_margin: hysteresis passed to :class:`TreeMaintainer`.
        probes_per_link: probe transmissions per candidate link per round.
    """

    def __init__(
        self,
        scheme,
        rings: RingsTopology,
        monitor: Optional[LinkQualityMonitor] = None,
        interval: int = 10,
        switch_margin: float = 0.1,
        probes_per_link: int = 1,
    ) -> None:
        if interval < 1:
            raise ConfigurationError("maintenance interval must be at least 1")
        if not hasattr(scheme, "replace_tree"):
            raise ConfigurationError(
                f"{type(scheme).__name__} does not support tree replacement"
            )
        self._scheme = scheme
        self._rings = rings
        self.monitor = monitor or LinkQualityMonitor()
        self._interval = interval
        self._probes_per_link = probes_per_link
        self._maintainer = TreeMaintainer(
            rings, self.monitor, switch_margin=switch_margin
        )
        #: All parent switches applied so far, in order.
        self.switch_log: List[ParentSwitch] = []
        #: Total probe transmissions performed (energy bookkeeping).
        self.probes_sent = 0

    def _candidate_links(self) -> List[Link]:
        return [
            (node, candidate)
            for node in self._scheme.tree.parents
            for candidate in self._rings.upstream_neighbors(node)
        ]

    def __call__(self, epoch: int, channel: Channel) -> None:
        """The ``on_epoch`` hook: probe and maintain every ``interval``."""
        if (epoch + 1) % self._interval != 0:
            return
        self.probes_sent += self.monitor.probe_round(
            channel, self._candidate_links(), epoch, self._probes_per_link
        )
        maintained, switches = self._maintainer.maintain(self._scheme.tree)
        if switches:
            self._scheme.replace_tree(maintained)
            self.switch_log.extend(switches)

    def checkpoint_state(self) -> Dict[str, object]:
        """The monitor's estimates, the switch log and the probe count
        (the maintained tree itself is the scheme's to save)."""
        return {
            "monitor": self.monitor.checkpoint_state(),
            "switch_log": [
                [switch.node, switch.old_parent, switch.new_parent]
                for switch in self.switch_log
            ],
            "probes_sent": self.probes_sent,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self.monitor.restore_state(state["monitor"])
        self.switch_log = [ParentSwitch(*entry) for entry in state["switch_log"]]
        self.probes_sent = state["probes_sent"]


def feed_monitor_from_channel(
    monitor: LinkQualityMonitor,
    channel: Channel,
    links: Iterable[Link],
    epoch: int,
) -> None:
    """Passively record what each link would have delivered this epoch.

    A convenience for experiments that want monitoring without extra probe
    energy: the data transmissions already drew these outcomes, so folding
    them in models a node snooping on its own traffic.
    """
    for sender, receiver in links:
        monitor.observe(
            sender, receiver, channel.delivered(sender, receiver, epoch, 0)
        )
