"""String-keyed component registries behind the declarative Session API.

The paper presents TAG, synopsis diffusion and Tributary-Delta as
*interchangeable strategies under one query model*; this module is where
that interchangeability lives in code. Every pluggable component family
gets a registry keyed by a short stable name:

==============  ===================================  =======================
registry        entry (its contract)                 built-ins
==============  ===================================  =======================
schemes         ``SchemeEntry`` (builder, adaptive)  TAG, SD, TD-Coarse, TD
aggregates      zero-argument ``Aggregate`` factory  count, sum, avg, min,
                (usually the class)                  max, sample, distinct,
                                                     moments
failure models  spec constructor -> ``FailureModel`` none, global, regional,
                                                     timeline
topologies      ``(num_sensors, seed) -> topology``  synthetic, labdata
                with ``deployment``, ``rings`` and
                optional ``base_loss``
datasets        spec constructor -> readings         constant, uniform,
                                                     diurnal
churn models    spec constructor -> ``ChurnModel``   none, deaths, blackout,
                (``None``: no churn at all)          lifetime, birthdeath
summaries       spec-string ``Aggregate`` factory    heavy_hitters, quantiles
fault plans     spec constructor -> ``FaultPlan``    corrupt, duplicate,
                                                     delay, bscrash, partition
regions         ``(deployment, max_depth) ->         region (quadtree), grid
                RegionHierarchy``
==============  ===================================  =======================

A topology's ``base_loss`` (per-link loss rates) is composed under the
configured failure model — how measured-link scenarios like LabData plug
into the same config schema. Region builders take any deployment, so every
hierarchy applies to every topology. Fault plans draw only keyed hashes of
(seed, sender, receiver, epoch), so a plan perturbs a run identically under
the blocked engine and the scalar oracle.

Aggregates resolve from *spec strings* too (:func:`build_aggregate`): a
plain name constructs with no arguments, while parameterised entries — the
``frequent/`` summaries registered via ``register_summary`` — take
colon-separated tokens (``heavy_hitters:0.05``, ``quantiles:0.05:0.9``)
and work everywhere an aggregate name does: ``SELECT`` targets, configs,
and multi-query workloads.

Extending the system is one decorator::

    from repro.registry import register_aggregate

    @register_aggregate("median")
    class MedianAggregate(Aggregate):
        ...

and the new name immediately works everywhere a name is accepted: the
query layer's ``SELECT`` targets, :class:`repro.api.RunConfig`, swept
grids, and the CLI. Discovery is ``available()``.

Failure models, datasets, churn models and fault plans are built from
*spec strings* — the colon-separated idiom of ``repro sweep``
(``global:0.3``, ``uniform:10:100:0``) — by one :meth:`Registry.build`: the
head token selects the registered *spec constructor*, which receives the
remaining tokens as positional strings.

Registries resolve lazily (at build time, not at registration time), and
unknown names raise :class:`~repro.errors.ConfigurationError` listing what
*is* available — configuration mistakes fail loudly and actionably.

Process-pool caveat: worker processes re-import this module, so built-ins
are always present in workers, but components registered dynamically (e.g.
inside a test function) exist only in the registering process. Register
custom components at module import time if they must survive ``jobs > 1``.
"""

from __future__ import annotations

import inspect
import threading
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

from repro.aggregates.average import AverageAggregate
from repro.aggregates.base import Aggregate
from repro.aggregates.count import CountAggregate
from repro.aggregates.distinct import DistinctCountAggregate
from repro.aggregates.frequent import (
    HeavyHittersAggregate,
    QuantilesAggregate,
    QuantilesQDAggregate,
)
from repro.aggregates.minmax import MaxAggregate, MinAggregate
from repro.aggregates.moments import MomentsAggregate
from repro.aggregates.sample import UniformSampleAggregate
from repro.aggregates.sum_ import SumAggregate
from repro.core.adaptation import DampedPolicy, TDCoarsePolicy, TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.sd_scheme import SynopsisDiffusionScheme
from repro.core.tag_scheme import TagScheme
from repro.core.td_scheme import TributaryDeltaScheme
from repro.datasets.labdata import LabDataScenario
from repro.datasets.streams import (
    ConstantReadings,
    DiurnalLightReadings,
    UniformReadings,
)
from repro.datasets.synthetic import make_scale_scenario, make_synthetic_scenario
from repro.chaos.faults import (
    BaseStationCrash,
    CompositeFaultPlan,
    CorruptSynopsis,
    DelayControl,
    DuplicateDelivery,
    FaultPlan,
    Partition,
)
from repro.errors import ConfigurationError
from repro.network.churn import (
    BirthDeathChurn,
    LifetimeChurn,
    RandomDeaths,
    RegionalBlackout,
    ScheduledChurn,
)
from repro.network.failures import (
    FailureSchedule,
    GlobalLoss,
    NoLoss,
    RegionalLoss,
)
from repro.network.placement import Deployment
from repro.network.rings import RingsTopology
from repro.spatial.regions import (
    RegionHierarchy,
    grid_hierarchy,
    parse_region_spec,
    quadtree_hierarchy,
)

T = TypeVar("T")


def _spec_parts(spec: str, kind: str) -> Tuple[str, Tuple[str, ...]]:
    if not isinstance(spec, str) or not spec:
        raise ConfigurationError(f"{kind} spec must be a non-empty string")
    head, *args = spec.split(":")
    return head, tuple(args)


def _usage(head: str, signature: inspect.Signature) -> str:
    """The spec form a signature takes: ``head:NAME[:OPTIONAL]``."""
    tokens = [head]
    for parameter in signature.parameters.values():
        token = ":" + parameter.name.upper()
        tokens.append(token if parameter.default is parameter.empty else f"[{token}]")
    return "".join(tokens)


class Registry(Generic[T]):
    """A named table of components with actionable resolution errors.

    Entries keep registration order (which fixes, for example, the order
    ``available()`` lists schemes in, and with it the row order of every
    all-scheme comparison). Re-registering a name replaces the entry —
    tests and notebooks can shadow a built-in.

    Lookups and mutation are lock-guarded: the aggregation service resolves
    components from HTTP worker threads while a test (or a plugin loaded
    late) may be registering, and CPython gives no ordering guarantee for a
    dict being resized mid-iteration (``available`` snapshots under the
    lock for exactly that reason).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}
        self._lock = threading.RLock()

    def registrar(self, name: str) -> Callable[[T], T]:
        """A decorator registering its target under ``name``."""

        def decorator(entry: T) -> T:
            return self.register(name, entry)

        return decorator

    def register(self, name: str, entry: T) -> T:
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"{self.kind} names must be non-empty strings, got {name!r}"
            )
        with self._lock:
            self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (tests shadowing built-ins clean up with this)."""
        with self._lock:
            self._entries.pop(name, None)

    def resolve(self, name: str) -> T:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise ConfigurationError(
                    f"unknown {self.kind} {name!r}; "
                    f"available: {', '.join(self.available())}"
                ) from None

    def build(self, spec: str, word: str):
        """Construct from a ``name[:arg...]`` spec: the head token resolves
        the entry, which is called with the remaining tokens as strings.

        A token count the entry's signature does not take, or a
        ``ValueError`` from the call (a non-number), becomes one
        :class:`ConfigurationError` naming the spec as a ``word`` spec
        ("bad failure spec 'regional:0.5': expected
        regional:INSIDE:OUTSIDE"). Any other error of the entry propagates.
        """
        head, args = _spec_parts(spec, word)
        constructor = self.resolve(head)
        signature = inspect.signature(constructor)
        try:
            signature.bind(*args)
        except TypeError:
            raise ConfigurationError(
                f"bad {word} spec {spec!r}: expected {_usage(head, signature)}"
            ) from None
        try:
            return constructor(*args)
        except ConfigurationError:
            raise
        except ValueError as error:
            raise ConfigurationError(
                f"bad {word} spec {spec!r}: {error}"
            ) from error

    def available(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        with self._lock:
            return tuple(self._entries)

    def view(self) -> types.MappingProxyType:
        """A live read-only mapping view (name -> entry)."""
        return types.MappingProxyType(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


# -- scheme registry -------------------------------------------------------


@dataclass
class SchemeContext:
    """Everything a scheme builder may draw on, resolved from a config.

    Builders receive one fully-assembled context: the shared deployment and
    rings, the shared bushy tree, a *fresh* aggregate instance, and the
    construction knobs. They must not draw randomness — construction is
    deterministic, only channel draws are random.
    """

    deployment: object
    rings: object
    tree: object
    aggregate: Aggregate
    threshold: float = 0.9
    tree_attempts: int = 1
    use_batch: bool = True


@dataclass(frozen=True)
class SchemeEntry:
    """A registered scheme: its builder plus behavioural metadata.

    ``adaptive`` marks schemes whose topology reacts to feedback (the
    Tributary-Delta family): the runner stabilises them before measurement
    and calls ``adapt`` on the paper's cadence during it.
    """

    builder: Callable[[SchemeContext], object]
    adaptive: bool = False


SCHEMES: Registry[SchemeEntry] = Registry("scheme")
AGGREGATES: Registry[Callable[..., Aggregate]] = Registry("aggregate")
FAILURE_MODELS: Registry[Callable[..., object]] = Registry("failure model")
TOPOLOGIES: Registry[Callable[..., object]] = Registry("topology")
DATASETS: Registry[Callable[..., object]] = Registry("dataset")
CHURN_MODELS: Registry[Callable[..., object]] = Registry("churn model")
SUMMARIES: Registry[Callable[..., Aggregate]] = Registry("summary")
FAULTS: Registry[Callable[..., FaultPlan]] = Registry("fault injector")
REGIONS: Registry[Callable[..., RegionHierarchy]] = Registry(
    "region hierarchy"
)


def register_scheme(name: str, adaptive: bool = False):
    """Class decorator-style registration of a scheme builder.

    The builder maps a :class:`SchemeContext` to a ready
    ``AggregationScheme``. ``adaptive=True`` opts the scheme into the
    stabilise-then-adapt driving the Tributary-Delta schemes get.
    """

    def decorator(builder: Callable[[SchemeContext], object]):
        SCHEMES.register(name, SchemeEntry(builder=builder, adaptive=adaptive))
        return builder

    return decorator


def register_summary(name: str):
    """Register a frequent-summary aggregate for ``name[:arg...]`` specs.

    The factory receives the spec's remaining tokens as positional strings
    and returns an :class:`~repro.aggregates.base.Aggregate` wrapping one
    of the ``frequent/`` summaries. The name lands in *two* registries:
    ``SUMMARIES`` (discovery — ``available()['summaries']``) and
    ``AGGREGATES``, which is what makes the summary a first-class query
    target everywhere an aggregate name is accepted (``SELECT`` targets,
    ``RunConfig.aggregate``, workload query specs).
    """

    def decorator(factory: Callable[..., Aggregate]):
        SUMMARIES.register(name, factory)
        AGGREGATES.register(name, factory)
        return factory

    return decorator


# ``@register_<family>("name")`` decorators; each entry's contract is in the
# module table above.
register_aggregate = AGGREGATES.registrar
register_regions = REGIONS.registrar
register_failure_model = FAILURE_MODELS.registrar
register_topology = TOPOLOGIES.registrar
register_dataset = DATASETS.registrar
register_churn = CHURN_MODELS.registrar
register_fault = FAULTS.registrar


def available() -> Dict[str, Tuple[str, ...]]:
    """Every registry's names: the discovery surface of the component system.

    >>> sorted(available())
    ['aggregates', 'churn_models', 'datasets', 'failure_models', 'faults', 'regions', 'schemes', 'summaries', 'topologies']
    >>> available()['schemes']
    ('TAG', 'SD', 'TD-Coarse', 'TD')
    >>> available()['summaries']
    ('heavy_hitters', 'quantiles', 'quantiles_qd')
    >>> available()['regions']
    ('region', 'grid')
    """
    return {
        "schemes": SCHEMES.available(),
        "aggregates": AGGREGATES.available(),
        "failure_models": FAILURE_MODELS.available(),
        "topologies": TOPOLOGIES.available(),
        "datasets": DATASETS.available(),
        "churn_models": CHURN_MODELS.available(),
        "summaries": SUMMARIES.available(),
        "faults": FAULTS.available(),
        "regions": REGIONS.available(),
    }


# -- spec strings ----------------------------------------------------------


def build_aggregate(spec: str) -> Aggregate:
    """Construct an aggregate from a ``name[:arg...]`` spec string.

    Plain registered names (``count``, ``sum``, ...) construct with no
    arguments — exactly the historical behaviour — while parameterised
    summaries take spec tokens: ``heavy_hitters:0.05`` or
    ``quantiles:0.05:0.9``. Only ``register_summary`` entries are
    parameterised: ``register_aggregate`` factories are zero-argument by
    contract (their constructor parameters are internal tuning knobs, not
    spec surface), so stray tokens on a plain aggregate are configuration
    mistakes and fail fast here instead of leaking raw strings into a run.

    >>> build_aggregate("count").name
    'count'
    >>> build_aggregate("heavy_hitters:0.2").name
    'heavy_hitters:0.2'
    """
    head, args = _spec_parts(spec, "aggregate")
    if args and head in AGGREGATES and head not in SUMMARIES:
        raise ConfigurationError(
            f"aggregate {head!r} takes no spec arguments, got {spec!r}; "
            "parameterised aggregates are the registered summaries: "
            + ", ".join(SUMMARIES.available())
        )
    return AGGREGATES.build(spec, "aggregate")


def build_failure_model(spec: str):
    """Construct a failure model from a ``name[:arg...]`` spec string.

    >>> build_failure_model("global:0.3")
    GlobalLoss(rate=0.3)
    """
    return FAILURE_MODELS.build(spec, "failure")


def build_reading(spec: str):
    """Construct a reading workload from a ``name[:arg...]`` spec string.

    >>> build_reading("constant:2.5")(node=1, epoch=0)
    2.5
    """
    return DATASETS.build(spec, "reading")


def build_churn_model(spec: str):
    """Construct a churn model from a ``name[:arg...]`` spec string.

    Returns ``None`` for the ``none`` spec — the sentinel every default
    config carries, meaning the run has no dynamic-topology machinery at
    all (byte-identical to a simulator without the feature).

    >>> build_churn_model("none") is None
    True
    >>> build_churn_model("deaths:50:10")
    RandomDeaths(epoch=50, count=10, seed=0)
    """
    return CHURN_MODELS.build(spec, "churn")


def build_fault_plan(specs) -> Optional[FaultPlan]:
    """Construct a fault plan from one spec string or a sequence of them.

    A single spec resolves to the bare injector; several compose into a
    :class:`~repro.chaos.faults.CompositeFaultPlan` (all injectors apply,
    in order). ``None`` or an empty sequence means no faults at all — the
    chaos hooks stay disengaged and the run is byte-identical to one
    without the subsystem.

    >>> build_fault_plan(None) is None
    True
    >>> build_fault_plan("corrupt:0.05").describe()
    'corrupt:0.05:0'
    >>> build_fault_plan(["delay:3", "partition:7:10:5"]).describe()
    'delay:3+partition:7:10:5'
    """
    if specs is None:
        return None
    if isinstance(specs, str):
        specs = (specs,)
    plans = [FAULTS.build(spec, "fault") for spec in specs]
    if not plans:
        return None
    if len(plans) == 1:
        return plans[0]
    return CompositeFaultPlan(tuple(plans))


def build_regions(spec: str, deployment):
    """Construct a region hierarchy from a ``name[:depth[:budget]]`` spec.

    Returns ``(hierarchy, depth, word_budget)`` — everything
    :class:`repro.spatial.GroupedAggregate` needs to wrap an aggregate for
    a GROUP BY run. The optional third token is the multiresolution word
    budget: a merged grouped message larger than that many words coarsens
    its deepest cells into ancestors until it fits.
    """
    name, depth, budget = parse_region_spec(spec)
    if name not in REGIONS:
        raise ConfigurationError(
            f"unknown region hierarchy {name!r} in GROUP BY spec {spec!r}; "
            f"registered hierarchies: {', '.join(REGIONS.available())}"
        )
    builder = REGIONS.resolve(name)
    try:
        hierarchy = builder(deployment, depth)
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"bad GROUP BY spec {spec!r}: {error}"
        ) from error
    return hierarchy, depth, budget


# -- built-in schemes ------------------------------------------------------
# Registration order is the canonical comparison order of every
# multi-scheme figure: TAG, SD, TD-Coarse, TD.


@register_scheme("TAG")
def _build_tag(context: SchemeContext) -> TagScheme:
    return TagScheme(
        context.deployment,
        context.tree,
        context.aggregate,
        attempts=context.tree_attempts,
        use_batch=context.use_batch,
    )


@register_scheme("SD")
def _build_sd(context: SchemeContext) -> SynopsisDiffusionScheme:
    return SynopsisDiffusionScheme(
        context.deployment,
        context.rings,
        context.aggregate,
        use_batch=context.use_batch,
    )


def build_td(context: SchemeContext, policy, name: str) -> TributaryDeltaScheme:
    """A Tributary-Delta scheme over ``context`` adapting under ``policy``.

    The builder behind the registered ``TD`` / ``TD-Coarse`` entries; wrap
    it in a :class:`SchemeEntry` to run an unregistered policy through the
    same scenario steps (``experiments.sweeps.sweep_expansion_heuristic``).
    """
    graph = TDGraph(
        context.rings, context.tree, initial_modes_by_level(context.rings, 0)
    )
    return TributaryDeltaScheme(
        context.deployment,
        graph,
        context.aggregate,
        policy=policy,
        tree_attempts=context.tree_attempts,
        name=name,
        use_batch=context.use_batch,
    )


@register_scheme("TD-Coarse", adaptive=True)
def _build_td_coarse(context: SchemeContext) -> TributaryDeltaScheme:
    return build_td(
        context,
        DampedPolicy(TDCoarsePolicy(threshold=context.threshold)),
        "TD-Coarse",
    )


@register_scheme("TD", adaptive=True)
def _build_td_fine(context: SchemeContext) -> TributaryDeltaScheme:
    return build_td(
        context, TDFinePolicy(threshold=context.threshold), "TD"
    )


# -- built-in aggregates ---------------------------------------------------

register_aggregate("count")(CountAggregate)
register_aggregate("sum")(SumAggregate)
register_aggregate("avg")(AverageAggregate)
register_aggregate("min")(MinAggregate)
register_aggregate("max")(MaxAggregate)
register_aggregate("sample")(UniformSampleAggregate)
register_aggregate("distinct")(DistinctCountAggregate)
register_aggregate("moments")(MomentsAggregate)


# -- built-in summaries (frequent/) ----------------------------------------


@register_summary("heavy_hitters")
def _build_heavy_hitters(
    phi: str = "0.05", epsilon: str = "", hint: str = "1024"
) -> HeavyHittersAggregate:
    """``heavy_hitters:PHI[:EPS[:HINT]]`` — phi-frequent items (Section 6)."""
    support = float(phi)
    return HeavyHittersAggregate(
        phi=support,
        epsilon=float(epsilon) if epsilon else None,
        total_items_hint=int(hint),
    )


@register_summary("quantiles")
def _build_quantiles(
    epsilon: str = "0.05", phi: str = "0.5"
) -> QuantilesAggregate:
    """``quantiles:EPS[:PHI]`` — the phi-quantile (median by default)."""
    return QuantilesAggregate(epsilon=float(epsilon), phi=float(phi))


@register_summary("quantiles_qd")
def _build_quantiles_qd(
    epsilon: str = "0.05", phi: str = "0.5", log_universe: str = "10"
) -> QuantilesQDAggregate:
    """``quantiles_qd:EPS[:PHI[:LOG_UNIVERSE]]`` — the phi-quantile via
    q-digest summaries (Shrivastava et al.), the space-bounded sibling of
    the GK-backed ``quantiles``."""
    return QuantilesQDAggregate(
        epsilon=float(epsilon),
        phi=float(phi),
        log_universe=int(log_universe),
    )


# -- built-in region hierarchies (spatial/) ---------------------------------

register_regions("region")(quadtree_hierarchy)
register_regions("grid")(grid_hierarchy)


# -- built-in failure models -----------------------------------------------


@register_failure_model("none")
def _build_no_loss() -> NoLoss:
    return NoLoss()


@register_failure_model("global")
def _build_global_loss(rate: str) -> GlobalLoss:
    return GlobalLoss(float(rate))


@register_failure_model("regional")
def _build_regional_loss(inside: str, outside: str) -> RegionalLoss:
    return RegionalLoss(float(inside), float(outside))


@register_failure_model("timeline")
def _build_timeline() -> FailureSchedule:
    """The paper's Figure 6 failure timeline (quiet / regional / global /
    quiet, 100 epochs per phase)."""
    return FailureSchedule(
        [
            (0, GlobalLoss(0.0)),
            (100, RegionalLoss(0.3, 0.0)),
            (200, GlobalLoss(0.3)),
            (300, GlobalLoss(0.0)),
        ]
    )


# -- built-in topologies ---------------------------------------------------


@dataclass
class ResolvedTopology:
    """What a topology builder hands the session: placement + routing.

    ``base_loss`` (optional) carries measured per-link loss rates that the
    session composes under the configured failure model — the LabData
    pattern, where link quality belongs to the *scenario*, not the failure
    spec.
    """

    deployment: Deployment
    rings: RingsTopology
    base_loss: Optional[Dict] = field(default=None)


@register_topology("synthetic")
def _build_synthetic(num_sensors: int, seed: int) -> ResolvedTopology:
    scenario = make_synthetic_scenario(num_sensors=num_sensors, seed=seed)
    return ResolvedTopology(
        deployment=scenario.deployment, rings=scenario.rings
    )


@register_topology("synthetic-scale")
def _build_synthetic_scale(num_sensors: int, seed: int) -> ResolvedTopology:
    # Constant-density variant of "synthetic": area grows with N so node
    # degree stays at the paper's ~30 regardless of network size.
    scenario = make_scale_scenario(num_sensors=num_sensors, seed=seed)
    return ResolvedTopology(
        deployment=scenario.deployment, rings=scenario.rings
    )


@register_topology("labdata")
def _build_labdata(num_sensors: int, seed: int) -> ResolvedTopology:
    # The lab deployment is a fixed 54-mote floor plan; num_sensors is
    # accepted for signature uniformity but does not apply.
    lab = LabDataScenario.build(seed=seed)
    return ResolvedTopology(
        deployment=lab.deployment, rings=lab.rings, base_loss=lab.base_loss
    )


# -- built-in churn models -------------------------------------------------


@register_churn("none")
def _build_no_churn() -> None:
    """No churn: the sentinel meaning a fully static membership."""
    return None


@register_churn("deaths")
def _build_deaths(epoch: str, count: str, seed: str = "0") -> RandomDeaths:
    """``deaths:EPOCH:COUNT[:SEED]`` — hash-sampled node deaths."""
    return RandomDeaths(int(epoch), int(count), seed=int(seed))


@register_churn("blackout")
def _build_blackout(
    epoch: str,
    x1: str = "0",
    y1: str = "0",
    x2: str = "10",
    y2: str = "10",
    rejoin: str = "",
) -> RegionalBlackout:
    """``blackout:EPOCH[:X1:Y1:X2:Y2[:REJOIN_EPOCH]]`` — regional churn.

    The default rectangle is the paper's {(0,0),(10,10)} quadrant, the same
    region ``regional:P1:P2`` loss targets.
    """
    return RegionalBlackout(
        int(epoch),
        lower=(float(x1), float(y1)),
        upper=(float(x2), float(y2)),
        rejoin_epoch=int(rejoin) if rejoin else None,
    )


@register_churn("lifetime")
def _build_lifetime(
    battery_j: str, overhead: str = str(LifetimeChurn.overhead_uj_per_epoch)
) -> LifetimeChurn:
    """``lifetime:BATTERY_J[:OVERHEAD_UJ]`` — battery-exhaustion churn."""
    return LifetimeChurn(float(battery_j), overhead_uj_per_epoch=float(overhead))


@register_churn("at")
def _build_scheduled(epoch: str, nodes: str) -> ScheduledChurn:
    """``at:EPOCH:N1+N2+...`` — the listed nodes die at ``EPOCH``."""
    return ScheduledChurn.of(
        deaths=[(int(epoch), [int(node) for node in nodes.split("+")])]
    )


@register_churn("birthdeath")
def _build_birthdeath(
    death: str, birth: str, seed: str = "0"
) -> BirthDeathChurn:
    """``birthdeath:DEATH:BIRTH[:SEED]`` — steady-state per-boundary churn.

    Every live sensor dies with probability ``DEATH`` at each churn
    boundary and every dead one rejoins with probability ``BIRTH`` — the
    continuous-turnover regime (equilibrium live fraction
    ``BIRTH / (BIRTH + DEATH)``).
    """
    return BirthDeathChurn(
        death_rate=float(death), birth_rate=float(birth), seed=int(seed)
    )


# -- built-in fault injectors ----------------------------------------------


@register_fault("corrupt")
def _build_corrupt(rate: str, seed: str = "0") -> CorruptSynopsis:
    """``corrupt:RATE[:SEED]`` — flip a synopsis MSB on delivery."""
    return CorruptSynopsis(float(rate), seed=int(seed))


@register_fault("duplicate")
def _build_duplicate(rate: str, seed: str = "0") -> DuplicateDelivery:
    """``duplicate:RATE[:SEED]`` — deliver some payloads twice."""
    return DuplicateDelivery(float(rate), seed=int(seed))


@register_fault("delay")
def _build_delay(epochs: str) -> DelayControl:
    """``delay:EPOCHS`` — defer control-message billing by N epochs."""
    return DelayControl(int(epochs))


@register_fault("bscrash")
def _build_bscrash(start: str, duration: str) -> BaseStationCrash:
    """``bscrash:START:DURATION`` — the base station hears nothing."""
    return BaseStationCrash(int(start), int(duration))


@register_fault("partition")
def _build_partition(node: str, start: str, duration: str) -> Partition:
    """``partition:NODE:START:DURATION`` — one node drops off the air."""
    return Partition(int(node), int(start), int(duration))


# -- built-in datasets -----------------------------------------------------


@register_dataset("constant")
def _build_constant(value: str = "1.0") -> ConstantReadings:
    return ConstantReadings(float(value))


@register_dataset("uniform")
def _build_uniform(low: str, high: str, seed: str = "0") -> UniformReadings:
    return UniformReadings(int(low), int(high), seed=int(seed))


@register_dataset("diurnal")
def _build_diurnal(seed: str = "0") -> DiurnalLightReadings:
    return DiurnalLightReadings(seed=int(seed))
