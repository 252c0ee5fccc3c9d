"""Online invariant auditing for live simulation runs.

The :class:`Auditor` rides inside the simulator (attached through the
channel's :class:`~repro.chaos.faults.ChaosRuntime`) and re-checks, after
every epoch and every adaptation/membership/repair event, the invariants the
paper and this reproduction promise:

* ``edge-correctness`` / ``path-correctness`` — Property 1/2 on the live
  :class:`~repro.core.graph.TDGraph`, via the offline checker in
  :mod:`repro.core.validation` so the running graph is held to the same
  standard as imported topologies;
* ``billing-conservation`` — the words/messages accumulated in the
  transmission logs must equal the channel's per-node load maps (every send
  is billed exactly once, to exactly one node);
* ``fm-or-monotonicity`` — the base station's contributing-count FM sketch
  (SD's piggyback, or its Count query's own synopsis) must be a bitwise
  subset of the union of the alive sensors' single-item insertions (a
  fused OR can never invent a bit);
* ``tree-count-consistency`` — on the pure tree scheme, losslessly counted
  contributors must match the count aggregate exactly;
* ``lossless-delivery`` — under a :class:`~repro.network.failures.NoLoss`
  failure model nothing may be dropped (injected partitions/crashes
  surface here);
* ``membership-consistency`` — alive set, rings, tree and stranded list
  must agree with each other after every churn boundary.

In ``strict`` mode (the default) the first violation raises
:class:`~repro.errors.PropertyViolation` with structured context; in record
mode violations accumulate in :attr:`Auditor.violations` for later
inspection (the CLI's ``--audit record``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import PropertyViolation
from repro.network.failures import NoLoss
from repro.network.placement import BASE_STATION


class Auditor:
    """Checks runtime invariants on a live simulation.

    Attributes:
        strict: raise on the first violation (True) or record and continue.
        violations: :class:`~repro.errors.PropertyViolation` instances
            collected in record mode (empty in strict mode unless it never
            trips).
        checks: counter of executed checks per invariant name, so tests and
            smoke jobs can assert the auditor actually ran.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[PropertyViolation] = []
        self.checks: Dict[str, int] = {}
        self._observed_words = 0
        self._observed_messages = 0

    # -- plumbing -----------------------------------------------------------

    def _count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def _report(
        self,
        message: str,
        *,
        invariant: str,
        epoch: Optional[int] = None,
        level: Optional[int] = None,
        nodes: Sequence[int] = (),
    ) -> None:
        violation = PropertyViolation(
            message, invariant=invariant, epoch=epoch, level=level, nodes=nodes
        )
        if self.strict:
            raise violation
        self.violations.append(violation)

    def observe_log(self, log) -> None:
        """Accumulate a transmission log into the conservation totals.

        The simulator feeds it every log the channel produces — warmup,
        control and measurement epochs alike — so the running totals track
        exactly what the channel billed into its per-node maps.
        """
        self._observed_words += log.words_sent
        self._observed_messages += log.messages_sent

    def checkpoint_state(self) -> Dict[str, int]:
        """The conservation totals a resumed audit must continue from."""
        return {"words": self._observed_words, "messages": self._observed_messages}

    def restore_state(self, state: Dict[str, int]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self._observed_words = state["words"]
        self._observed_messages = state["messages"]

    # -- invariant checks ---------------------------------------------------

    def check_billing(self, channel, epoch: int) -> None:
        """``billing-conservation``: logs vs per-node load maps, exactly."""
        self._count("billing-conservation")
        billed_words = sum(channel.per_node_words().values())
        billed_messages = sum(channel.per_node_messages().values())
        if billed_words != self._observed_words:
            self._report(
                f"per-node word bills ({billed_words}) diverge from "
                f"logged words sent ({self._observed_words})",
                invariant="billing-conservation",
                epoch=epoch,
            )
        elif billed_messages != self._observed_messages:
            self._report(
                f"per-node message bills ({billed_messages}) diverge from "
                f"logged messages sent ({self._observed_messages})",
                invariant="billing-conservation",
                epoch=epoch,
            )

    def check_epoch(self, scheme, channel, outcome, log, epoch: int) -> None:
        """Per-epoch checks: lossless delivery and tree count consistency."""
        self._count("lossless-delivery")
        if isinstance(channel.failure_model, NoLoss) and log.drops > 0:
            self._report(
                f"{log.drops} drops under a lossless failure model",
                invariant="lossless-delivery",
                epoch=epoch,
            )
        # The pure tree scheme (has a tree, no TD graph) counts contributors
        # losslessly twice over: as an integer aggregate and as a bitmask.
        # They must agree exactly; replayed deliveries double-count the
        # aggregate but not the (idempotent) bitmask.
        if hasattr(scheme, "tree") and getattr(scheme, "graph", None) is None:
            self._count("tree-count-consistency")
            if outcome.contributing_estimate != float(outcome.contributing):
                self._report(
                    f"tree count aggregate {outcome.contributing_estimate} "
                    f"!= contributor bitmask count {outcome.contributing}",
                    invariant="tree-count-consistency",
                    epoch=epoch,
                )

    def check_structure(self, scheme, membership, epoch: int) -> None:
        """Structural checks after an adaptation or membership event."""
        graph = getattr(scheme, "graph", None)
        if graph is not None:
            self._check_graph(graph, epoch)
        if membership is not None:
            self._check_membership(scheme, membership, epoch)

    def _check_graph(self, graph, epoch: int) -> None:
        """Property 1/2 on the live TDGraph via the offline checker."""
        from repro.core.validation import audit, topology_of_td_graph

        self._count("edge-correctness")
        self._count("path-correctness")
        report = audit(topology_of_td_graph(graph), base_station=BASE_STATION)
        if report.edge_violations:
            source, target = report.edge_violations[0]
            self._report(
                f"M edge ({source}, {target}) incident on T vertex {target}",
                invariant="edge-correctness",
                epoch=epoch,
                level=graph.rings.level(source),
                nodes=(source, target),
            )
        elif report.path_violations:
            m_edge, t_edge = report.path_violations[0]
            self._report(
                f"T edge {t_edge} follows M edge {m_edge} on a path",
                invariant="path-correctness",
                epoch=epoch,
                nodes=(m_edge[0], t_edge[1]),
            )

    def _check_membership(self, scheme, membership, epoch: int) -> None:
        """Alive set, rings, tree and stranded list must agree."""
        self._count("membership-consistency")
        alive = membership.alive
        rings_nodes = set(membership.rings.levels)
        stranded = set(membership.stranded)
        if BASE_STATION not in alive:
            self._report(
                "base station missing from the alive set",
                invariant="membership-consistency",
                epoch=epoch,
                nodes=(BASE_STATION,),
            )
            return
        if not rings_nodes <= alive:
            ghosts = sorted(rings_nodes - alive)
            self._report(
                f"rings contain dead nodes {ghosts}",
                invariant="membership-consistency",
                epoch=epoch,
                nodes=ghosts,
            )
            return
        if rings_nodes | stranded != alive:
            missing = sorted(alive - rings_nodes - stranded)
            self._report(
                f"alive nodes {missing} neither rung nor marked stranded",
                invariant="membership-consistency",
                epoch=epoch,
                nodes=missing,
            )
            return
        if set(membership.tree.nodes) != rings_nodes:
            odd = sorted(set(membership.tree.nodes) ^ rings_nodes)
            self._report(
                f"tree and rings disagree on nodes {odd}",
                invariant="membership-consistency",
                epoch=epoch,
                nodes=odd,
            )

    def check_contrib_sketch(
        self, sketch, counter, alive_sensors, epoch: int
    ) -> None:
        """``fm-or-monotonicity``: the fused contributing-count sketch must
        be a bitwise subset of the union of the alive sensors' legitimate
        insertions — a fused OR can never invent a bit. ``counter`` is the
        Count that built the sketch (the piggyback, or the query's own), so
        its local synopses are exactly those insertions."""
        self._count("fm-or-monotonicity")
        alive = sorted(alive_sensors)
        # A Count reads no reading.
        (singles,) = counter.synopsis_local_block(alive, [epoch], None)
        rogue = sketch._packed & ~counter.synopsis_fuse_many(
            [counter.synopsis_empty(), *singles]
        )._packed
        if rogue:
            self._report(
                f"contributing-count sketch carries {bin(rogue).count('1')} "
                "bit(s) outside the union of legitimate insertions",
                invariant="fm-or-monotonicity",
                epoch=epoch,
            )

    # -- reporting ----------------------------------------------------------

    def summary(self) -> str:
        """One-paragraph audit summary for CLI output."""
        ran = ", ".join(
            f"{name}={count}" for name, count in sorted(self.checks.items())
        )
        if not self.violations:
            return f"audit OK ({ran or 'no checks ran'})"
        lines = [f"audit FAILED: {len(self.violations)} violation(s) ({ran})"]
        lines.extend(f"  - {violation}" for violation in self.violations)
        return "\n".join(lines)
