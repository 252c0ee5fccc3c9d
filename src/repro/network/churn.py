"""Node churn: scheduled death/join, lifetime-coupled death, blackouts.

The paper's robustness experiments (Sections 4-5, Figure 6) perturb only the
*links*: the routing tree and the rings are frozen at construction time.
This module adds the scenario axis its premise actually worries about —
"it is usually impractical to install new batteries in a deployed sensor
network" — **nodes leaving and entering the network mid-run**:

* :class:`ScheduledChurn` — an explicit timeline of death/join events.
* :class:`RandomDeaths` — a deterministic hash-keyed sample of the live
  population dies at one epoch (the classic "kill k% of the network" churn
  experiment).
* :class:`RegionalBlackout` — every node in a rectangle dies at one epoch
  and optionally rejoins later (the node-level twin of
  :class:`~repro.network.failures.RegionalLoss`).
* :class:`LifetimeChurn` — lifetime-coupled death: a node dies the moment
  its cumulative transmission spend plus duty-cycle overhead exhausts its
  battery, closing the loop with :mod:`repro.network.lifetime` (hotspot
  nodes with big subtrees die first, exactly the effect rotating or
  multi-pathing them is meant to prevent).

Models are *pure*: :meth:`ChurnModel.events_in` maps a boundary window plus
a :class:`ChurnContext` (live set, deployment, cumulative per-node energy)
to a :class:`ChurnBatch`, drawing any randomness from keyed hashes — a
churn timeline is fully determined by the run config, like every other draw
in this repository.

:class:`DynamicMembership` is the runtime that applies them: at each churn
boundary (the simulator calls :meth:`advance` at adaptation-interval
boundaries, so the epoch-blocked engine keeps working) it collects the due
events, recomputes rings over the survivors
(:meth:`~repro.network.rings.RingsTopology.build_restricted`), repairs the
routing tree (:func:`repro.tree.repair.repair_tree`), charges the repair
messages to the channel's per-node energy maps, and bumps the channel's
model version so any outstanding
:class:`~repro.network.links.DeliveryPlan` is invalidated. Schemes receive
the resulting :class:`MembershipUpdate` through their
``on_membership_change`` hook and rebuild their per-level structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro._hashing import hash_unit, stream_rng
from repro.errors import ConfigurationError
from repro.network.energy import EnergyModel
from repro.network.placement import BASE_STATION, Deployment, NodeId, Point
from repro.network.rings import RingsTopology
from repro.tree.repair import (
    REPAIR_MESSAGES,
    REPAIR_WORDS,
    RepairReport,
    repair_tree,
)
from repro.tree.structure import Tree


@dataclass(frozen=True)
class ChurnBatch:
    """Deaths and joins due at one boundary (either may be empty)."""

    deaths: Tuple[NodeId, ...] = ()
    joins: Tuple[NodeId, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.deaths or self.joins)


@dataclass(frozen=True)
class ChurnContext:
    """What a churn model may condition on, snapshotted at a boundary.

    Attributes:
        epoch: the boundary's absolute epoch.
        epochs_elapsed: epochs executed so far in this run (duty-cycle
            overhead accrues per epoch, not per absolute epoch number).
        alive: the currently live node ids (base station included).
        deployment: node positions (regional models select by rectangle).
        per_node_uj: cumulative *transmission* energy per node since the
            run began (lifetime models add duty-cycle overhead on top).
    """

    epoch: int
    epochs_elapsed: int
    alive: FrozenSet[NodeId]
    deployment: Deployment
    per_node_uj: Mapping[NodeId, float]


class ChurnModel(Protocol):
    """Maps boundary windows to the death/join events due in them.

    ``events_in(start, end, ctx)`` returns the events scheduled in the
    half-open-below window ``(start, end]``; ``start=None`` marks the run's
    first boundary, which collects everything due at or before ``end``
    (models whose first event predates the run's start epoch apply
    immediately). Implementations must be deterministic functions of
    ``(start, end, ctx)`` — any randomness comes from keyed hashes.

    Membership only changes at boundaries, so a batch is the window's *net
    state*: when one node has several events inside one window, the model
    reports only the latest (a death at 101 and a rejoin at 105 collapse to
    "alive" at the 110 boundary). A node must never appear in both
    ``deaths`` and ``joins`` of one batch — the runtime rejects such
    batches loudly.

    Epochs are absolute, the same convention as
    :class:`~repro.network.failures.FailureSchedule` phases: a run
    measuring from ``start_epoch=1000`` (the runner's default offset)
    applies an event at epoch 100 at its very first boundary. Timeline
    experiments that count epochs from zero set ``start_epoch=0``, exactly
    like the Figure 6 configs.
    """

    def events_in(
        self, start: Optional[int], end: int, ctx: ChurnContext
    ) -> ChurnBatch:
        ...


def _window_contains(start: Optional[int], end: int, epoch: int) -> bool:
    """Whether an event at ``epoch`` is due in the window ``(start, end]``."""
    return epoch <= end and (start is None or epoch > start)


@dataclass(frozen=True)
class ScheduledChurn:
    """An explicit timeline: ``deaths``/``joins`` are (epoch, nodes) pairs."""

    deaths: Tuple[Tuple[int, Tuple[NodeId, ...]], ...] = ()
    joins: Tuple[Tuple[int, Tuple[NodeId, ...]], ...] = ()

    @classmethod
    def of(
        cls,
        deaths: Sequence[Tuple[int, Sequence[NodeId]]] = (),
        joins: Sequence[Tuple[int, Sequence[NodeId]]] = (),
    ) -> "ScheduledChurn":
        """Build from any nested sequences (normalised to tuples)."""
        return cls(
            deaths=tuple((int(e), tuple(nodes)) for e, nodes in deaths),
            joins=tuple((int(e), tuple(nodes)) for e, nodes in joins),
        )

    def events_in(
        self, start: Optional[int], end: int, ctx: ChurnContext
    ) -> ChurnBatch:
        # Net state per node: the latest event in the window wins (a death
        # and a rejoin scheduled at the same epoch resolve to the death).
        latest: Dict[NodeId, Tuple[int, int]] = {}
        for is_death, timeline in ((1, self.deaths), (0, self.joins)):
            for epoch, nodes in timeline:
                if not _window_contains(start, end, epoch):
                    continue
                for node in nodes:
                    key = (epoch, is_death)
                    if node not in latest or key > latest[node]:
                        latest[node] = key
        deaths = tuple(
            sorted(n for n, (_, is_death) in latest.items() if is_death)
        )
        joins = tuple(
            sorted(n for n, (_, is_death) in latest.items() if not is_death)
        )
        return ChurnBatch(deaths=deaths, joins=joins)


@dataclass(frozen=True)
class RandomDeaths:
    """``count`` hash-sampled live sensors die at ``epoch``.

    The sample is drawn from the live population at the boundary that
    applies the event, via a keyed stream RNG — deterministic in
    ``(seed, epoch)`` and independent of the channel's draws.
    """

    epoch: int
    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError("death count cannot be negative")

    def events_in(
        self, start: Optional[int], end: int, ctx: ChurnContext
    ) -> ChurnBatch:
        if not _window_contains(start, end, self.epoch):
            return ChurnBatch()
        population = sorted(ctx.alive - {BASE_STATION})
        rng = stream_rng("churn-deaths", self.seed, self.epoch)
        count = min(self.count, len(population))
        return ChurnBatch(deaths=tuple(sorted(rng.sample(population, count))))


@dataclass(frozen=True)
class RegionalBlackout:
    """Every node in a rectangle dies at ``epoch``; optionally rejoins.

    The node-level twin of the paper's ``Regional(p1, p2)`` link-failure
    model: instead of the region's *messages* getting lost, the region's
    *nodes* go down (a power cut, a storm). With ``rejoin_epoch`` set the
    same nodes come back, which exercises join handling and re-ringing in
    one scenario.
    """

    epoch: int
    lower: Point = (0.0, 0.0)
    upper: Point = (10.0, 10.0)
    rejoin_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lower[0] > self.upper[0] or self.lower[1] > self.upper[1]:
            raise ConfigurationError("blackout rectangle has negative extent")
        if self.rejoin_epoch is not None and self.rejoin_epoch <= self.epoch:
            raise ConfigurationError("rejoin must happen after the blackout")

    def _region(self, deployment: Deployment) -> Tuple[NodeId, ...]:
        return tuple(deployment.nodes_in_rect(self.lower, self.upper))

    def events_in(
        self, start: Optional[int], end: int, ctx: ChurnContext
    ) -> ChurnBatch:
        # The rejoin is validated to be later than the blackout, so when
        # both land in one window the net state is "alive": either the
        # region was never down at any executed boundary (both predate the
        # run) or it recovers at this one.
        if self.rejoin_epoch is not None and _window_contains(
            start, end, self.rejoin_epoch
        ):
            return ChurnBatch(joins=self._region(ctx.deployment))
        if _window_contains(start, end, self.epoch):
            return ChurnBatch(deaths=self._region(ctx.deployment))
        return ChurnBatch()


@dataclass(frozen=True)
class LifetimeChurn:
    """Battery-exhaustion death, coupled to the run's own energy spend.

    A node dies at the first boundary where its cumulative transmission
    energy plus ``overhead_uj_per_epoch * epochs_elapsed`` (idle listening,
    reception, CPU — the duty-cycle bill of
    :class:`repro.network.lifetime.MoteEnergyModel`) reaches the battery.
    Tree hotspots — nodes aggregating large subtrees — spend fastest and
    die first, which is exactly the dynamics the lifetime experiments
    predict statically.
    """

    battery_j: float
    #: MoteEnergyModel defaults: 2 received messages (8 uJ each) + 30 uJ
    #: listening + 0.05 uJ CPU per epoch.
    overhead_uj_per_epoch: float = 46.05

    def __post_init__(self) -> None:
        if self.battery_j <= 0:
            raise ConfigurationError("battery capacity must be positive")
        if self.overhead_uj_per_epoch < 0:
            raise ConfigurationError("overhead cannot be negative")

    def events_in(
        self, start: Optional[int], end: int, ctx: ChurnContext
    ) -> ChurnBatch:
        budget = self.battery_j * 1e6
        overhead = self.overhead_uj_per_epoch * ctx.epochs_elapsed
        dead = tuple(
            sorted(
                node
                for node in ctx.alive
                if node != BASE_STATION
                and ctx.per_node_uj.get(node, 0.0) + overhead >= budget
            )
        )
        return ChurnBatch(deaths=dead)


@dataclass(frozen=True)
class BirthDeathChurn:
    """Memoryless per-epoch birth/death churn (the constant-churn regime).

    At every epoch each live sensor dies with probability ``death_rate``
    and each dead sensor rejoins with probability ``birth_rate`` — the
    birth-death process the ROADMAP's 100k-node tier expects, where churn
    is continuous background noise rather than an episodic event.

    Draws are keyed hashes of ``(seed, node, epoch)``, so the process is a
    pure function of the window: a boundary at epoch ``e`` sees exactly the
    same flips whether the simulator ran blocked or per-epoch, and the
    window's net state is computed by replaying each node's per-epoch flips
    inside ``(start, end]``.
    """

    death_rate: float
    birth_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("death_rate", "birth_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1)")

    def events_in(
        self, start: Optional[int], end: int, ctx: ChurnContext
    ) -> ChurnBatch:
        if self.death_rate <= 0.0 and self.birth_rate <= 0.0:
            return ChurnBatch()
        first = 0 if start is None else start + 1
        if first > end:
            return ChurnBatch()
        deaths: List[NodeId] = []
        joins: List[NodeId] = []
        for node in ctx.deployment.node_ids:
            if node == BASE_STATION:
                continue
            was_alive = node in ctx.alive
            alive = was_alive
            for epoch in range(first, end + 1):
                draw = hash_unit("churn-birthdeath", self.seed, node, epoch)
                if alive:
                    alive = draw >= self.death_rate
                else:
                    alive = draw < self.birth_rate
            if alive != was_alive:
                (joins if alive else deaths).append(node)
        return ChurnBatch(
            deaths=tuple(sorted(deaths)), joins=tuple(sorted(joins))
        )


# -- the runtime -----------------------------------------------------------


@dataclass(frozen=True)
class MembershipUpdate:
    """One applied churn boundary: who changed and the repaired topology.

    Attributes:
        epoch: the boundary's absolute epoch.
        died: nodes that went down at this boundary, sorted.
        joined: nodes that came (back) up, sorted.
        stranded: live nodes cut off from the base station by the
            re-ringing (they keep sensing — and stay in the ground truth —
            but are unreachable, so they are excluded from the topology).
        alive: every live sensor-capable node id, base station included,
            stranded nodes included.
        rings: the re-rung topology over the live reachable nodes.
        tree: the repaired routing tree over the same nodes.
        repair: what the repair pass did (reattachments + message bill).
    """

    epoch: int
    died: Tuple[NodeId, ...]
    joined: Tuple[NodeId, ...]
    stranded: Tuple[NodeId, ...]
    alive: FrozenSet[NodeId]
    rings: RingsTopology
    tree: Tree
    repair: RepairReport

    def alive_sensors(self) -> List[NodeId]:
        """The live sensor ids (ground-truth population), sorted."""
        return sorted(self.alive - {BASE_STATION})


class DynamicMembership:
    """Owns the live set and rebuilds rings/tree as churn unfolds.

    One instance serves one run (its state is the run's membership
    history). The simulator calls :meth:`advance` at churn boundaries;
    everything else — scheme structure rebuilds — flows from the returned
    :class:`MembershipUpdate` through ``on_membership_change``.
    """

    def __init__(
        self,
        model: ChurnModel,
        deployment: Deployment,
        rings: RingsTopology,
        tree: Tree,
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        self._model = model
        self._deployment = deployment
        #: The full radio graph; every re-ringing restricts this, so nodes
        #: can rejoin with their original links.
        self._connectivity = rings.connectivity
        #: Explicit override for lifetime billing; when None, the energy
        #: model the simulator passes to :meth:`advance` applies, keeping
        #: churn's battery accounting and the run's energy report on one
        #: cost model.
        self._energy_model = energy_model
        self.rings = rings
        self.tree = tree
        self.alive = set(deployment.node_ids)
        self.stranded: Tuple[NodeId, ...] = ()
        self._last_boundary: Optional[int] = None
        #: Stranded subtree memory: node -> the tree parent it held when it
        #: went dark. When a bridge rejoin makes the node reachable again,
        #: repair re-attaches it to this parent if the link is still valid
        #: under the new rings (wholesale re-admission instead of a
        #: nearest-distance scatter).
        self._dark_parents: Dict[NodeId, NodeId] = {}
        #: Every applied update, in order (experiment diagnostics).
        self.updates: List[MembershipUpdate] = []

    @property
    def num_alive_sensors(self) -> int:
        return len(self.alive) - (BASE_STATION in self.alive)

    def checkpoint_state(self) -> Dict[str, object]:
        """The run's membership history a resume cannot re-derive.

        The rings are left out: they are a pure function of the full radio
        graph and the alive set, so :meth:`restore_state` rebuilds them.
        """
        return {
            "alive": sorted(self.alive),
            "stranded": list(self.stranded),
            "last_boundary": self._last_boundary,
            "tree": self.tree.to_jsonable(),
            "dark_parents": {
                str(child): parent
                for child, parent in self._dark_parents.items()
            },
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`; raises if the rebuilt
        stranded set disagrees with the saved one."""
        self.alive = set(state["alive"])
        rings, stranded = RingsTopology.build_restricted(
            self._connectivity, self.alive
        )
        if sorted(stranded) != sorted(state["stranded"]):
            raise ConfigurationError(
                "rebuilt stranded set diverges from the checkpoint "
                f"({sorted(stranded)} != {sorted(state['stranded'])})"
            )
        self.rings = rings
        self.stranded = tuple(stranded)
        self.tree = Tree.from_jsonable(state["tree"])
        self._last_boundary = state["last_boundary"]
        self._dark_parents = {
            int(child): parent
            for child, parent in state["dark_parents"].items()
        }

    def _context(
        self,
        epoch: int,
        epochs_elapsed: int,
        channel,
        energy_model: Optional[EnergyModel],
    ) -> ChurnContext:
        model = self._energy_model or energy_model or EnergyModel()
        per_node_words = channel.per_node_words()
        per_node_messages = channel.per_node_messages()
        per_node_uj: Dict[NodeId, float] = {
            node: model.transmission_cost(
                per_node_messages.get(node, 0), words
            )
            for node, words in per_node_words.items()
        }
        return ChurnContext(
            epoch=epoch,
            epochs_elapsed=epochs_elapsed,
            alive=frozenset(self.alive),
            deployment=self._deployment,
            per_node_uj=per_node_uj,
        )

    def advance(
        self,
        epoch: int,
        epochs_elapsed: int,
        channel,
        energy_model: Optional[EnergyModel] = None,
    ) -> Optional[MembershipUpdate]:
        """Apply the events due at boundary ``epoch``; None if nothing moved.

        On a change: re-ring over the survivors, repair the tree, charge the
        repair handshakes to the channel's per-node energy maps, and bump
        the channel's model version (outstanding delivery plans were drawn
        against edges that no longer exist). ``energy_model`` (normally the
        simulator's) prices the cumulative spend lifetime models see.
        """
        ctx = self._context(epoch, epochs_elapsed, channel, energy_model)
        batch = self._model.events_in(self._last_boundary, epoch, ctx)
        self._last_boundary = epoch
        overlap = set(batch.deaths) & set(batch.joins)
        if overlap:
            raise ConfigurationError(
                "churn batch lists nodes as both dead and joined "
                f"(models must report each window's net state): "
                f"{sorted(overlap)[:5]}"
            )
        died = sorted(
            node
            for node in set(batch.deaths)
            if node in self.alive and node != BASE_STATION
        )
        joined = sorted(
            node
            for node in set(batch.joins)
            if node not in self.alive and node in self._deployment.positions
        )
        if not died and not joined:
            return None
        self.alive.difference_update(died)
        self.alive.update(joined)
        rings, stranded = RingsTopology.build_restricted(
            self._connectivity, self.alive
        )
        # Remember the dark subtrees' links before repair drops them, and
        # forget the memory of anything that is no longer alive (a dead
        # node rejoining later is a fresh joiner, not a re-admission).
        for node in stranded:
            parent = self.tree.parents.get(node)
            if parent is not None and node not in self._dark_parents:
                self._dark_parents[node] = parent
        for node in list(self._dark_parents):
            if node not in self.alive:
                del self._dark_parents[node]
        tree, repair = repair_tree(
            self.tree, rings, self._deployment, preferred=self._dark_parents
        )
        for node in tree.parents:
            self._dark_parents.pop(node, None)
        for child, _parent in repair.reattached:
            channel.account_control(
                child, words=REPAIR_WORDS, messages=REPAIR_MESSAGES
            )
        channel.bump_model_version()
        self.rings = rings
        self.tree = tree
        self.stranded = tuple(stranded)
        update = MembershipUpdate(
            epoch=epoch,
            died=tuple(died),
            joined=tuple(joined),
            stranded=self.stranded,
            alive=frozenset(self.alive),
            rings=rings,
            tree=tree,
            repair=repair,
        )
        self.updates.append(update)
        return update
