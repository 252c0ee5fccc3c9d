"""The unified declarative Session API: one config, every entry point.

Any simulator run in this repository — a quickstart, a figure experiment,
a sweep-grid cell, a CLI invocation — is fully described by one frozen,
JSON-round-trippable :class:`RunConfig` and executed by one
:class:`Session`::

    >>> from repro.api import RunConfig, Session
    >>> config = RunConfig(scheme="TAG", num_sensors=40, epochs=3,
    ...                    converge_epochs=0, failure="none")
    >>> report = Session().run(config)
    >>> report.result.estimates
    [40.0, 40.0, 40.0]

Every name in a config (``scheme``, ``aggregate``, ``failure``,
``topology``, ``reading``) resolves through the string-keyed registries of
:mod:`repro.registry`, so registering a component makes it reachable from
every entry point at once. Configs round-trip through JSON exactly::

    >>> RunConfig.from_json(config.to_json()) == config
    True

and hash stably (:func:`config_digest`), which keys the one on-disk result
cache. The JSON form holds only the fields that differ from their
defaults, under one schema version. :data:`EXPERIMENT_CONFIGS` maps each
named experiment that runs the scalar engine onto its resolved canonical
config: ``repro run NAME`` sweeps that config over the experiment's axes
(:meth:`Session.sweep`; the :class:`Scenario` steps where it reads the
live scheme), and the CLI's ``repro describe`` / ``repro run-config`` pair
round-trips it.

A config may also describe a multi-query **workload**: the
``queries`` field lists named query specs, all executed in one simulator
pass over one channel — every query sees byte-identical delivery draws,
payloads piggyback in shared messages, and :class:`RunReport` exposes
per-query results::

    >>> config = RunConfig(scheme="TAG", num_sensors=40, epochs=2,
    ...                    converge_epochs=0, failure="none",
    ...                    queries=[{"name": "n", "aggregate": "count"},
    ...                             {"name": "total", "aggregate": "sum"}])
    >>> report = Session().run(config)
    >>> report.query("n").estimates
    [40.0, 40.0]

Determinism contract: a config fully determines its result. Construction
draws no randomness (all channel/sketch draws are keyed hashes), so
:meth:`Session.run` is byte-identical to hand-wiring the same scenario,
scheme and simulator — pinned by ``tests/test_api.py`` (and per query by
``tests/test_workload.py``).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import pathlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.aggregates.composite import dedupe_names
from repro.aggregates.workload import WorkloadAggregate, WorkloadReadings
from repro.errors import ConfigurationError
from repro.network.churn import DynamicMembership
from repro.network.failures import ComposedLoss
from repro.network.simulator import (
    EpochResult,
    EpochSimulator,
    RunResult,
    _parse_retention,
)
from repro.parallel import parallel_map
from repro.plotting import format_table
from repro.query import parse_queries, spec_query
from repro.storage import validate_store_spec
from repro.registry import (
    SCHEMES,
    TOPOLOGIES,
    SchemeContext,
    available,
    build_aggregate,
    build_churn_model,
    build_failure_model,
    build_fault_plan,
    build_reading,
)
from repro.tree.construction import build_bushy_tree

#: Version of the RunConfig JSON schema; bump on breaking field changes.
#: Every payload is written at this version under one rule (default-valued
#: fields are omitted, see :meth:`RunConfig.to_jsonable`); v8 introduced
#: it. The reader still decodes the full-field payloads v2-v7 wrote, whose
#: version grew with the fields a config happened to set.
CONFIG_SCHEMA_VERSION = 8

#: Version of the run-result cache keyed by :func:`config_digest`. Bumped
#: to 2 when cache keys moved to the canonical ``RunConfig.to_json()``
#: payload — older cache entries are simply never hit again.
RUN_CACHE_VERSION = 2

_CONFIG_TAG = "run-config"

#: The schema default of ``RunConfig.aggregate`` (used when a one-query
#: workload is reduced to its single-field equivalent).
_DEFAULT_AGGREGATE = "count"


@dataclass(frozen=True)
class EngineOptions:
    """The legacy ``engine`` sub-config: decoded, checked, never encoded.

    Both keys once chose an execution engine and are now constructor
    arguments only, so every accepted value normalizes ``RunConfig.engine``
    to ``None``:

    * ``backend`` picked the fused kernels (``"pure"``) or the per-payload
      object wave (``"object"``). Every block now runs the fused kernel
      unless chaos is attached, so ``"pure"`` is dropped and ``"object"`` is
      refused.
    * ``state`` chose a dict or an array (``"packed"``) node-state tier.
      Array state is the only layout, so ``"packed"`` is dropped and
      ``"dict"`` is refused.
    """

    backend: dataclasses.InitVar[Optional[str]] = None
    state: dataclasses.InitVar[Optional[str]] = None

    def __post_init__(
        self, backend: Optional[str], state: Optional[str]
    ) -> None:
        if backend == "object":
            raise ConfigurationError(
                "engine.backend 'object' is gone with the kernel-backend "
                "switch: every block runs the fused kernel unless chaos is "
                "attached (scheme.engine_path names the engine); set "
                "use_batch=false to run the scalar reference path"
            )
        if backend not in (None, "pure"):
            raise ConfigurationError(
                "engine.backend is a legacy key that only accepts 'pure' "
                f"(the fused numpy kernels), got {backend!r}"
            )
        if state == "dict":
            raise ConfigurationError(
                "engine.state 'dict' is gone with the dict/graph-library "
                "node-state tier it selected; array-backed state is the only "
                "layout, drop the key"
            )
        if state not in (None, "packed"):
            raise ConfigurationError(
                "engine.state is a legacy key that only accepts 'packed' "
                f"(now the only layout), got {state!r}"
            )

    @classmethod
    def from_jsonable(cls, data: Mapping[str, object]) -> "EngineOptions":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                "'engine' must be an object of engine options, got "
                f"{type(data).__name__}"
            )
        unknown = sorted(set(data) - {"backend", "state"})
        if unknown:
            raise ConfigurationError(
                "unknown engine-option keys: "
                + ", ".join(repr(key) for key in unknown)
                + "; expected keys: 'backend', 'state'"
            )
        return cls(backend=data.get("backend"), state=data.get("state"))


@dataclass(frozen=True)
class QuerySpec:
    """One named query of a workload: an aggregate spec *or* a one-liner.

    Attributes:
        name: the query's handle in reports (``RunReport.query_results``);
            unique within a workload.
        aggregate: a registered aggregate spec string (``count``, ``sum``,
            ``heavy_hitters:0.05``, ...). Exactly one of ``aggregate`` /
            ``query`` must be set.
        query: a single-target ``SELECT ...`` one-liner (predicates and
            windows included).
    """

    name: str
    aggregate: Optional[str] = None
    query: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"query names must be non-empty strings, got {self.name!r}"
            )
        if (self.aggregate is None) == (self.query is None):
            raise ConfigurationError(
                f"query {self.name!r} must set exactly one of 'aggregate' "
                "or 'query'"
            )
        if self.aggregate is not None:
            build_aggregate(self.aggregate)  # validate eagerly
        else:
            parsed = parse_queries(self.query)
            if len(parsed) != 1:
                raise ConfigurationError(
                    f"query {self.name!r} has {len(parsed)} SELECT targets;"
                    " one workload entry holds one query — split the"
                    " targets into separate entries"
                )

    def to_jsonable(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"name": self.name}
        if self.aggregate is not None:
            payload["aggregate"] = self.aggregate
        if self.query is not None:
            payload["query"] = self.query
        return payload


def select_specs(text: str) -> Tuple[QuerySpec, ...]:
    """One spec per SELECT target of a one-liner, named by its target
    (repeats get distinct handles); all share its other clauses.

    >>> [spec.name for spec in select_specs("SELECT count, sum, count")]
    ['count', 'sum', 'count#2']
    """
    parsed = parse_queries(text)
    names = dedupe_names([query.select for query in parsed])
    return tuple(
        QuerySpec(name=name, query=query.render())
        for name, query in zip(names, parsed)
    )


def _coerce_query_spec(entry: object, index: int) -> QuerySpec:
    """Decode one ``queries`` entry (dict or QuerySpec), actionably."""
    if isinstance(entry, QuerySpec):
        return entry
    if not isinstance(entry, Mapping):
        raise ConfigurationError(
            f"queries[{index}] must be an object with 'name' and "
            f"'aggregate' or 'query' keys, got {type(entry).__name__}"
        )
    unknown = sorted(set(entry) - {"name", "aggregate", "query"})
    if unknown:
        raise ConfigurationError(
            f"queries[{index}] has unknown keys: "
            + ", ".join(repr(key) for key in unknown)
            + "; expected keys: 'name', 'aggregate', 'query'"
        )
    for key in ("name", "aggregate", "query"):
        value = entry.get(key)
        if value is not None and not isinstance(value, str):
            raise ConfigurationError(
                f"queries[{index}] key {key!r} expects a string, "
                f"got {value!r} ({type(value).__name__})"
            )
    name = entry.get("name")
    if name is None:
        # Default handle: the aggregate spec (or the positional q<i>).
        name = entry.get("aggregate") or f"q{index + 1}"
    try:
        return QuerySpec(
            name=name,
            aggregate=entry.get("aggregate"),
            query=entry.get("query"),
        )
    except ConfigurationError as error:
        raise ConfigurationError(f"queries[{index}]: {error}") from None


def _normalize_queries(value: object) -> Tuple[QuerySpec, ...]:
    """Validate and normalize a config's ``queries`` field."""
    if isinstance(value, (str, bytes)) or not isinstance(
        value, (list, tuple)
    ):
        raise ConfigurationError(
            "'queries' must be a list of query specs "
            "({name, aggregate | query} objects), got "
            f"{type(value).__name__}"
        )
    if not value:
        raise ConfigurationError(
            "'queries' cannot be empty; omit it for a single-query run"
        )
    specs = tuple(
        _coerce_query_spec(entry, index) for index, entry in enumerate(value)
    )
    names = [spec.name for spec in specs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ConfigurationError(
            "duplicate query names in 'queries': " + ", ".join(duplicates)
        )
    return specs


@dataclass(frozen=True)
class RunConfig:
    """One simulator run, declaratively: every knob, nothing hidden.

    Attributes:
        scheme: registered scheme name (``TAG``/``SD``/``TD-Coarse``/``TD``
            or anything added via ``register_scheme``).
        seed: channel seed of the measurement run. Configs sharing a seed
            are *paired*: identical loss draws (the paper's comparison
            methodology).
        failure: failure-model spec string (``none``, ``global:P``,
            ``regional:P1:P2``, ``timeline``, ...).
        topology: registered topology name (``synthetic``, ``labdata``).
        num_sensors: deployment size (topologies with fixed floor plans
            ignore it).
        scenario_seed: seed of deployment/tree construction and of the
            stabilisation phase's channel.
        aggregate: registered aggregate name; ignored when ``query`` is
            given.
        reading: workload spec string (``constant:V``,
            ``uniform:LO:HI:SEED``, ``diurnal:SEED``, ...).
        query: optional ``SELECT ...`` continuous-query string; its SELECT
            target, WHERE predicate and WINDOW wrap the workload and
            replace ``aggregate``. A multi-target ``SELECT a, b, ...``
            one-liner expands into a query workload (one query per
            target, shared WHERE/WINDOW).
        queries: optional multi-query workload — a list of named
            :class:`QuerySpec` entries (``{name, aggregate | query}``),
            each resolved through the registries. All queries execute in
            **one** simulator pass over **one** channel, so every query
            observes byte-identical delivery draws (the paper's paired
            comparison, extended from schemes to queries); payloads
            piggyback in shared messages with combined word billing. A
            one-entry workload is exactly its single-query equivalent
            (same engine path, same ``config_digest``, ``GROUP BY``
            allowed) under its own handle. Mutually exclusive with
            ``query``.
        epochs: measured epochs.
        warmup: epochs executed-but-unrecorded before measurement.
        start_epoch: measurement epoch offset (keeps measurement draws
            disjoint from stabilisation draws; the default is 1000).
        adapt_interval: adaptation cadence during measurement for adaptive
            schemes (the paper's is 10); non-adaptive schemes never adapt.
        converge_epochs: stabilisation epochs for adaptive schemes (adapting
            every epoch, per the paper's "until the topologies are stable").
        threshold: contributing-percentage target driving adaptation.
        tree_attempts: tree-edge (re)transmission attempts.
        use_batch: run the epoch-blocked engine (``False`` runs the scalar
            reference wave instead — the oracle the engine is pinned
            byte-identical to, under any block split).
        churn: churn-model spec string (``none``, ``deaths:E:K[:SEED]``,
            ``blackout:E[:X1:Y1:X2:Y2[:REJOIN]]``, ``lifetime:J``,
            ``at:E:N1+N2``). Applies to the measurement run only (the
            stabilisation phase models a healthy network); ``none`` is
            byte-identical to a build without the feature. Churn epochs
            are **absolute**, like ``FailureSchedule`` phases: with the
            default ``start_epoch=1000`` an event at epoch 100 is already
            due at the first boundary — timeline-style scenarios set
            ``start_epoch=0`` (as ``churn_timeline`` does).
        churn_interval: boundary cadence churn events apply at; 0 follows
            the adaptation cadence (or 10 when adaptation is off).
        engine: legacy :class:`EngineOptions` (or its dict form). Every
            value it still accepts (``backend="pure"``, ``state="packed"``)
            names the only engine there is, so it normalizes to ``None``
            and never encodes.
        faults: optional tuple of fault-injector spec strings
            (``corrupt:RATE[:SEED]``, ``duplicate:RATE[:SEED]``,
            ``delay:EPOCHS``, ``bscrash:START:DURATION``,
            ``partition:NODE:START:DURATION``), composed in order into one
            deterministic fault plan applied to the measurement run.
            Fault draws are keyed hashes, so a faulted config is still a
            pure function of its fields — same digest, same result, either
            engine. ``None`` (or an empty list, which normalizes to it)
            means the chaos hooks stay disengaged and the run is
            byte-identical to a pre-fault build.
        retention: which recorded epochs the run keeps in RAM — ``all``
            (the default: full timeline, byte-identical to the
            pre-retention schema), ``window:N`` (the last N, drop-oldest)
            or ``stream`` (none). Non-``all`` runs carry streaming
            summary stats on the result so RMS error and contributing
            fractions still cover every measured epoch. Limited to
            single-query configs: workload splitting needs the full
            timeline.
        storage: optional result-store spec (``memory``, ``jsonl:DIR``,
            ``sqlite:PATH``) — every recorded epoch is appended to the
            store as it streams past, keyed by :func:`config_digest`, and
            ``RunReport.load_epochs`` reloads the full timeline lazily
            even when retention dropped it from RAM.

    Grouping by spatial region has one spelling: the ``GROUP BY`` clause
    of a single query (``"SELECT avg GROUP BY region:2"``, or the one
    entry of a one-entry workload). :attr:`query_specs` is which queries a
    config asks for, under which handles.
    """

    scheme: str
    seed: int = 1
    failure: str = "none"
    topology: str = "synthetic"
    num_sensors: int = 600
    scenario_seed: int = 0
    aggregate: str = "count"
    reading: str = "constant:1.0"
    query: Optional[str] = None
    queries: Optional[Tuple[QuerySpec, ...]] = None
    epochs: int = 100
    warmup: int = 0
    start_epoch: int = 1000
    adapt_interval: int = 10
    converge_epochs: int = 120
    threshold: float = 0.9
    tree_attempts: int = 1
    use_batch: bool = True
    churn: str = "none"
    churn_interval: int = 0
    engine: Optional[EngineOptions] = None
    faults: Optional[Tuple[str, ...]] = None
    retention: str = "all"
    storage: Optional[str] = None

    def __post_init__(self) -> None:
        if self.faults is not None:
            if isinstance(self.faults, str):
                raise ConfigurationError(
                    "'faults' must be a list of fault spec strings, got "
                    f"{self.faults!r}; wrap a single spec in a list"
                )
            specs = tuple(self.faults)
            for spec in specs:
                if not isinstance(spec, str):
                    raise ConfigurationError(
                        "'faults' entries must be spec strings, got "
                        f"{spec!r} ({type(spec).__name__})"
                    )
            object.__setattr__(self, "faults", specs or None)
            build_fault_plan(self.faults)  # validate eagerly
        if self.engine is not None:
            if isinstance(self.engine, Mapping):
                EngineOptions.from_jsonable(self.engine)  # validate
            elif not isinstance(self.engine, EngineOptions):
                raise ConfigurationError(
                    "'engine' must be an EngineOptions (or its dict form), "
                    f"got {type(self.engine).__name__}"
                )
            # Nothing accepted is left to encode: the field's absence.
            object.__setattr__(self, "engine", None)
        SCHEMES.resolve(self.scheme)
        TOPOLOGIES.resolve(self.topology)
        build_failure_model(self.failure)  # validate eagerly
        build_reading(self.reading)
        build_churn_model(self.churn)
        if self.queries is not None:
            object.__setattr__(
                self, "queries", _normalize_queries(self.queries)
            )
            if self.query is not None:
                raise ConfigurationError(
                    "config sets both 'query' and 'queries'; a workload is"
                    " described by 'queries' alone (put the one-liner in a"
                    " {name, query} entry)"
                )
            if self.aggregate != _DEFAULT_AGGREGATE:
                raise ConfigurationError(
                    "config sets both 'aggregate' and 'queries'; a workload"
                    " is described by 'queries' alone (add the aggregate as"
                    " a {name, aggregate} entry)"
                )
        specs = self.query_specs  # validates query / aggregate
        if len(specs) > 1:
            grouped = [
                query.render()
                for query in map(spec_query, specs)
                if query.group_by
            ]
            if grouped:
                # A grouped run is one query sliced by region: per-group
                # records key off the single query's extras.
                raise ConfigurationError(
                    "workload members cannot carry GROUP BY clauses (got "
                    + ", ".join(repr(member) for member in grouped)
                    + "); run grouped queries standalone"
                )
        _parse_retention(self.retention)  # validate eagerly
        if self.retention != "all" and len(specs) > 1:
            raise ConfigurationError(
                "retention policies other than 'all' need the full "
                "timeline a workload split consumes; multi-query "
                "configs must keep retention='all'"
            )
        if self.storage is not None:
            if not isinstance(self.storage, str):
                raise ConfigurationError(
                    "'storage' expects a store spec string, got "
                    f"{self.storage!r} ({type(self.storage).__name__})"
                )
            validate_store_spec(self.storage)
        if self.num_sensors < 1:
            raise ConfigurationError("num_sensors must be at least 1")
        if min(self.epochs, self.warmup, self.converge_epochs) < 0:
            raise ConfigurationError("epoch counts cannot be negative")
        if self.adapt_interval < 0:
            raise ConfigurationError("adapt_interval cannot be negative")
        if self.churn_interval < 0:
            raise ConfigurationError("churn_interval cannot be negative")
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigurationError("threshold must be in (0, 1]")
        if self.tree_attempts < 1:
            raise ConfigurationError("tree_attempts must be at least 1")

    @functools.cached_property
    def query_specs(self) -> Tuple[QuerySpec, ...]:
        """The config's queries under their handles, resolved once.

        ``queries`` as given; else :func:`select_specs` of ``query``; else
        one spec for ``aggregate``, named by it. Derived (never encoded)
        and cached on first read, which ``__post_init__`` makes after
        normalizing ``queries``.
        """
        if self.queries is not None:
            return self.queries
        if self.query is not None:
            return select_specs(self.query)
        return (QuerySpec(name=self.aggregate, aggregate=self.aggregate),)

    # -- codec ------------------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-dict form: the type/version envelope plus every field
        whose value differs from its dataclass default.

        One rule for every field, so a config's encoding (and with it its
        :func:`config_digest`) never depends on which fields the schema
        had when it was written; :meth:`from_jsonable` fills the omitted
        ones back in from the same defaults.
        """
        payload: Dict[str, object] = {
            "type": _CONFIG_TAG,
            "version": CONFIG_SCHEMA_VERSION,
        }
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                encode = _FIELD_ENCODERS.get(field.name)
                payload[field.name] = encode(value) if encode else value
        return payload

    @classmethod
    def from_jsonable(cls, data: Mapping[str, object]) -> "RunConfig":
        """Decode (and validate) a dict produced by :meth:`to_jsonable`.

        Unknown keys are configuration mistakes (a typo'd knob silently
        ignored is a wrong experiment), so they raise with the offending
        and the expected names; missing keys take the schema's defaults.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"run config must be a JSON object, got {type(data).__name__}"
            )
        tag = data.get("type", _CONFIG_TAG)
        if tag != _CONFIG_TAG:
            raise ConfigurationError(
                f"payload type {tag!r} is not a {_CONFIG_TAG}"
            )
        version = data.get("version", CONFIG_SCHEMA_VERSION)
        if not isinstance(version, int) or version > CONFIG_SCHEMA_VERSION:
            raise ConfigurationError(
                f"run-config schema version {version!r} is newer than this "
                f"reader ({CONFIG_SCHEMA_VERSION})"
            )
        names = {field.name for field in dataclasses.fields(cls)}
        if "use_blocked" in data:
            check_legacy_use_blocked(data["use_blocked"])
            data = {k: v for k, v in data.items() if k != "use_blocked"}
        if "group_by" in data:
            check_legacy_group_by(data["group_by"])
            data = {k: v for k, v in data.items() if k != "group_by"}
        unknown = sorted(set(data) - names - {"type", "version"})
        if unknown:
            raise ConfigurationError(
                "unknown run-config keys: "
                + ", ".join(repr(key) for key in unknown)
                + "; expected keys: "
                + ", ".join(sorted(names))
            )
        if "scheme" not in data:
            raise ConfigurationError("run config needs a 'scheme' key")
        kwargs = {
            key: _check_field_type(key, data[key])
            for key in names
            if key in data
        }
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON encoding (sorted keys — stable for hashing)."""
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ConfigurationError(
                f"run config is not valid JSON: {error}"
            ) from error
        return cls.from_jsonable(data)

    def replace(self, **changes: object) -> "RunConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


def check_legacy_use_blocked(value: object) -> None:
    """Refuse the one dead value of the legacy ``use_blocked`` key.

    Payloads written before the per-epoch loop was deleted carry the key;
    ``true`` was its default and is dropped by the readers, anything else
    asked for a loop that no longer exists.
    """
    if value is not True:
        raise ConfigurationError(
            "'use_blocked' is gone with the per-epoch loop it selected; "
            "set use_batch=false to run the scalar reference path"
        )


def check_legacy_group_by(value: object) -> None:
    """Refuse a set value of the legacy ``group_by`` key.

    Grouping is the query's ``GROUP BY`` clause; payloads written while a
    config field duplicated it may carry the key. ``null`` was its default
    and is dropped by the readers; a region spec names the clause to write
    instead.
    """
    if value is not None:
        raise ConfigurationError(
            "'group_by' is gone: grouping is the query's GROUP BY clause, "
            f"e.g. query='SELECT avg GROUP BY {value}'"
        )


def _check_field_type(name: str, value: object) -> object:
    """Validate a decoded JSON value against its config field's type.

    Keeps wrongly-typed payloads (``"epochs": "2"``) on the
    ConfigurationError path instead of leaking ``TypeError`` from the
    dataclass validators. Driven by the annotation strings on
    :class:`RunConfig`, so new fields are covered automatically.
    """
    annotation = _FIELD_ANNOTATIONS[name]
    if name == "engine":
        # Shape and keys are validated (and the field dropped) by
        # the config's own __post_init__.
        if value is None or isinstance(value, (Mapping, EngineOptions)):
            return value
        raise ConfigurationError(
            f"run-config key 'engine' expects an object of engine options, "
            f"got {value!r} ({type(value).__name__})"
        )
    if name in ("faults", "queries"):
        # Entries are validated (queries coerced to QuerySpec) by the
        # config's own __post_init__; here only the container shape is.
        if value is None or isinstance(value, (list, tuple)):
            return value
        kind = "fault" if name == "faults" else "query"
        raise ConfigurationError(
            f"run-config key {name!r} expects a list of {kind} specs, "
            f"got {value!r} ({type(value).__name__})"
        )
    if annotation == "bool":
        ok = isinstance(value, bool)
    elif annotation == "int":
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif annotation == "float":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok:
            value = float(value)
    elif annotation == "Optional[str]":
        ok = value is None or isinstance(value, str)
    else:  # "str"
        ok = isinstance(value, str)
    if not ok:
        raise ConfigurationError(
            f"run-config key {name!r} expects {annotation}, "
            f"got {value!r} ({type(value).__name__})"
        )
    return value


_FIELD_ANNOTATIONS: Dict[str, str] = {
    field.name: str(field.type) for field in dataclasses.fields(RunConfig)
}

#: JSON encoders of the structured fields (the rest encode as themselves).
_FIELD_ENCODERS = {
    "queries": lambda specs: [spec.to_jsonable() for spec in specs],
    "faults": list,
}


def _single_query_equivalent(config: RunConfig) -> RunConfig:
    """Reduce a one-entry workload to its single-field form.

    A one-query workload is *defined* to be its single-query equivalent:
    it binds the same one query (:meth:`Scenario.bind`) and digests to
    the same cache key, which is what this reduction keeps. Multi-query
    workloads (and workload-free configs) pass through unchanged.
    """
    if config.queries is None or len(config.queries) != 1:
        return config
    spec = config.queries[0]
    return config.replace(
        queries=None,
        query=spec.query,
        aggregate=(
            spec.aggregate if spec.aggregate is not None else _DEFAULT_AGGREGATE
        ),
    )


def config_digest(config: RunConfig) -> str:
    """Stable SHA-256 over the canonical config JSON: the cache key.

    Derived from :meth:`RunConfig.to_json` plus :data:`RUN_CACHE_VERSION`,
    so a schema or semantics bump invalidates every cached result at once.
    One-query workloads digest as their single-field equivalent (the run
    they denote is the same run).
    """
    payload = dict(
        _single_query_equivalent(config).to_jsonable(),
        cache_version=RUN_CACHE_VERSION,
    )
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


# -- query workloads -------------------------------------------------------


@dataclass(frozen=True)
class QueryWorkload:
    """The resolved execution plan of a config's concurrent queries.

    One workload = N named queries served by **one** simulator pass over
    **one** channel. Delivery draws are keyed hashes independent of
    payload, so every query sees the delivery set its standalone run would
    see; payloads travel piggybacked in shared messages (combined word
    billing), and the contributing-count feedback travels once for the
    whole portfolio — the multi-query economics of the TAG/TinyDB lineage.
    """

    specs: Tuple[QuerySpec, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    @classmethod
    def from_config(cls, config: RunConfig) -> Optional["QueryWorkload"]:
        """The config's workload plan, or ``None`` for single-query runs.

        Reads :attr:`RunConfig.query_specs`: an explicit ``queries`` list
        or a multi-target ``SELECT a, b, ...`` one-liner (each target a
        named query sharing the WHERE/WINDOW clauses). A one-entry
        workload is a single-query run, not a workload.
        """
        specs = config.query_specs
        return cls(specs=specs) if len(specs) > 1 else None

    def build(
        self, source: object
    ) -> Tuple[WorkloadAggregate, WorkloadReadings]:
        """Compile to one (aggregate, readings) pair over a shared stream.

        Each query resolves exactly as its standalone run would — its own
        aggregate instance, its own window state over the shared source —
        then the per-query pieces zip into a :class:`WorkloadAggregate`
        and a tuple-valued :class:`WorkloadReadings`.
        """
        named = []
        readings = []
        for spec in self.specs:
            aggregate, reading_fn = spec_query(spec).build(source)
            named.append((spec.name, aggregate))
            readings.append(reading_fn)
        return WorkloadAggregate(named), WorkloadReadings(readings)


# -- execution -------------------------------------------------------------


@dataclass
class Scenario:
    """A config's resolved physical world, before any query binds to it.

    The aggregation service builds one scenario and then folds a *changing*
    query portfolio into it at block boundaries; ``run_config_result``
    builds one and binds the config's own queries. Either way the pieces
    are identical: deployment/rings from the registered topology, the
    shared bushy tree, the reading source, the loss model (with the
    topology's base loss composed in) and the scheme registry entry.
    """

    config: RunConfig
    topology: object
    tree: object
    source: object
    failure: object
    entry: object

    def build_scheme(self, aggregate):
        """A fresh scheme instance over this scenario for ``aggregate``."""
        return self.entry.builder(
            SchemeContext(
                deployment=self.topology.deployment,
                rings=self.topology.rings,
                tree=self.tree,
                aggregate=aggregate,
                threshold=self.config.threshold,
                tree_attempts=self.config.tree_attempts,
                use_batch=self.config.use_batch,
            )
        )

    def bind(self) -> Tuple[object, object]:
        """The config's own queries on a fresh scheme: ``(scheme, readings)``.

        One query builds over the deployment (a ``GROUP BY`` clause needs
        node positions); several zip into one :class:`QueryWorkload`.
        """
        specs = self.config.query_specs
        if len(specs) > 1:
            aggregate, readings = QueryWorkload(specs).build(self.source)
        else:
            aggregate, readings = spec_query(specs[0]).build(
                self.source, deployment=self.topology.deployment
            )
        return self.build_scheme(aggregate), readings

    def converge(self, scheme, readings) -> None:
        """Stabilise an adaptive scheme (the paper's warm-up phase).

        Adapts every epoch under the scenario seed, exactly as
        ``run_config_result`` always has; non-adaptive schemes and
        ``converge_epochs=0`` are no-ops. No warm-up answer is recorded, so
        a scheme that can (``signal_only``, see
        :class:`~repro.core.td_scheme.TributaryDeltaScheme`) carries only
        what adaptation reads: modes, adaptation log and control traffic
        come out exactly as under the full query payload.
        """
        if not (self.entry.adaptive and self.config.converge_epochs):
            return
        signal_only = getattr(scheme, "signal_only", contextlib.nullcontext)
        with signal_only(readings) as carried:
            EpochSimulator(
                self.topology.deployment,
                self.failure,
                scheme,
                seed=self.config.scenario_seed,
                adapt_interval=1,
            ).run(0, carried, warmup=self.config.converge_epochs)

    def build_simulator(
        self, scheme, checkpoint=None, audit=None, on_result=None
    ) -> EpochSimulator:
        """The measurement simulator, seeded and configured per the config."""
        churn_model = build_churn_model(self.config.churn)
        membership = None
        if churn_model is not None:
            membership = DynamicMembership(
                churn_model,
                self.topology.deployment,
                self.topology.rings,
                self.tree,
            )
        return EpochSimulator(
            self.topology.deployment,
            self.failure,
            scheme,
            seed=self.config.seed,
            adapt_interval=(
                self.config.adapt_interval if self.entry.adaptive else 0
            ),
            membership=membership,
            churn_interval=self.config.churn_interval or None,
            faults=build_fault_plan(self.config.faults),
            auditor=audit,
            checkpoint=checkpoint,
            on_result=on_result,
            retention=self.config.retention,
        )


def build_scenario(config: RunConfig) -> Scenario:
    """Resolve a config's scenario: topology, tree, readings, loss, scheme.

    Construction is deterministic (``scenario_seed`` keys it); queries are
    *not* bound — callers pair the scenario with whatever aggregate they
    are serving (the config's own, or the service's live workload).
    """
    topology = TOPOLOGIES.resolve(config.topology)(
        num_sensors=config.num_sensors, seed=config.scenario_seed
    )
    tree = build_bushy_tree(topology.rings, seed=config.scenario_seed)
    failure = build_failure_model(config.failure)
    base_loss = getattr(topology, "base_loss", None)
    if base_loss:
        failure = ComposedLoss(base_rates=base_loss, failure=failure)
    return Scenario(
        config=config,
        topology=topology,
        tree=tree,
        source=build_reading(config.reading),
        failure=failure,
        entry=SCHEMES.resolve(config.scheme),
    )


def run_config_result(
    config: RunConfig, checkpoint=None, audit=None
) -> RunResult:
    """Execute one config end-to-end and return the raw :class:`RunResult`.

    Module-level (not a method) so process pools can pickle it. The
    sequence is exactly the paper's per-run methodology, and exactly what
    the hand-wired quickstart does: build topology and tree from
    ``scenario_seed``, stabilise adaptive schemes (adapting every epoch,
    channel seeded by ``scenario_seed``), then measure ``epochs`` epochs
    from ``start_epoch`` under the measurement ``seed``.

    ``checkpoint`` (a :class:`repro.chaos.Checkpointer`) and ``audit`` (a
    :class:`repro.chaos.Auditor`) attach the chaos subsystem's crash-safe
    resume and online invariant auditing to the *measurement* run; both
    are observers — a checkpointed, audited run returns the same
    :class:`RunResult` as a bare one. Fault injection, in contrast, is
    part of the config itself (the ``faults`` field), because it changes
    the result.

    The config's queries bind through :meth:`Scenario.bind`: a multi-query
    workload runs the *same* sequence once, its queries zipped into one
    :class:`~repro.aggregates.workload.WorkloadAggregate` whose payloads
    piggyback in shared messages over one channel; a one-entry workload
    is the plain single-query path.
    """
    scenario = build_scenario(config)
    scheme, readings = scenario.bind()
    scenario.converge(scheme, readings)
    writer = None
    if config.storage is not None:
        from repro.storage import open_writer

        # A checkpoint-resumed run keeps the epochs the interrupted run
        # already spilled and appends after them; a fresh run replaces.
        resuming = checkpoint is not None and checkpoint.resume
        writer = open_writer(
            config.storage, config_digest(config), append=resuming
        )
    # Churn applies to the measurement run only: the paper stabilises
    # topologies over a healthy network, then the scenario perturbs it.
    simulator = scenario.build_simulator(
        scheme,
        checkpoint=checkpoint,
        audit=audit,
        on_result=writer.append if writer is not None else None,
    )
    try:
        return simulator.run(
            config.epochs,
            readings,
            start_epoch=config.start_epoch,
            warmup=config.warmup,
        )
    finally:
        if writer is not None:
            writer.close()


# -- reports ---------------------------------------------------------------

#: Epoch-extra keys private to the workload engine (stripped from the
#: per-query views the split produces).
_WORKLOAD_EXTRA_KEYS = ("workload_estimates", "workload_truths")


def split_workload_result(
    result: RunResult, names: Sequence[str]
) -> Dict[str, RunResult]:
    """Fan a workload run out into per-query :class:`RunResult` views.

    Each view carries the query's own per-epoch estimates and loss-free
    truths (recorded by the engine as ``workload_estimates`` /
    ``workload_truths`` epoch extras) beside the run's *shared* channel
    facts: delivery logs, contributing counts, and the one energy report —
    the workload paid for one set of messages, so the bill is the
    portfolio's, not any single query's.
    """
    epochs_by_query: Dict[str, List[EpochResult]] = {
        name: [] for name in names
    }
    for epoch in result.epochs:
        estimates = epoch.extra.get("workload_estimates")
        truths = epoch.extra.get("workload_truths")
        if estimates is None or truths is None:
            raise ConfigurationError(
                "run result carries no per-query records; was it produced "
                "by a multi-query workload?"
            )
        shared_extra = {
            key: value
            for key, value in epoch.extra.items()
            if key not in _WORKLOAD_EXTRA_KEYS
        }
        for index, name in enumerate(names):
            epochs_by_query[name].append(
                EpochResult(
                    epoch=epoch.epoch,
                    estimate=float(estimates[index]),
                    true_value=float(truths[index]),
                    contributing=epoch.contributing,
                    contributing_estimate=epoch.contributing_estimate,
                    log=epoch.log,
                    extra=dict(shared_extra),
                )
            )
    return {
        name: RunResult(
            scheme_name=result.scheme_name,
            epochs=epochs_by_query[name],
            energy=result.energy,
        )
        for name in names
    }


@dataclass
class RunReport:
    """One executed config with its per-query results and a summary.

    ``result`` is the executed run (for a workload: the engine's combined
    view, whose scalar estimate tracks the first query);
    ``query_results`` maps every query name to its own
    :class:`RunResult` — for single-query configs that is one entry
    pointing at ``result`` itself, for workloads the per-query split of
    the shared pass.
    """

    config: RunConfig
    result: RunResult
    query_results: Dict[str, RunResult] = dataclasses.field(
        init=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.config.query_specs]
        if len(names) > 1:
            self.query_results = split_workload_result(self.result, names)
        else:
            self.query_results = {names[0]: self.result}

    def query_names(self) -> List[str]:
        """The config's query handles, in workload order."""
        return list(self.query_results)

    def query(self, name: str) -> RunResult:
        """One query's result view (actionable on unknown names)."""
        try:
            return self.query_results[name]
        except KeyError:
            raise ConfigurationError(
                f"no query {name!r} in this run; queries: "
                + ", ".join(self.query_results)
            ) from None

    def is_workload(self) -> bool:
        return len(self.query_results) > 1

    def rms_error(self) -> float:
        return self.result.rms_error()

    def num_sensors(self) -> int:
        """The executed deployment's sensor count.

        Read off the deployment-complete per-node energy map (silent
        sensors report an explicit zero, the base station never
        transmits), because fixed-floor-plan topologies like ``labdata``
        ignore ``config.num_sensors`` — which is only the fallback here.
        """
        return len(self.result.energy.per_node_uj) or self.config.num_sensors

    def mean_contributing_fraction(self) -> float:
        return self.result.mean_contributing_fraction(self.num_sensors())

    def words_per_epoch(self) -> float:
        # num_epochs counts retention-dropped epochs too, so the average
        # stays honest under window/stream retention.
        if not self.result.num_epochs:
            return 0.0
        return self.result.energy.total_words / self.result.num_epochs

    # -- spatial GROUP BY --------------------------------------------------

    def is_grouped(self) -> bool:
        """Whether the run recorded per-region group series."""
        return any(
            "group_estimates" in epoch.extra for epoch in self.result.epochs
        )

    def _group_extras(self, key: str) -> List[Mapping[str, float]]:
        if not self.is_grouped():
            raise ConfigurationError(
                "run result carries no per-group records; was it produced "
                "by a query with a GROUP BY clause?"
            )
        return [epoch.extra.get(key) or {} for epoch in self.result.epochs]

    def group_names(self) -> List[str]:
        """Every region path that appeared in any recorded epoch, sorted.

        Coarsening makes the set epoch-dependent: an epoch that folded a
        region into its parent reports the parent path instead, so the
        union over epochs can hold both a region and its ancestor.
        """
        names: set = set()
        for extra in self._group_extras("group_estimates"):
            names.update(extra)
        for extra in self._group_extras("group_truths"):
            names.update(extra)
        return sorted(names)

    def group_estimates(self, path: str) -> List[float]:
        """The region's per-epoch estimates (0.0 when absent that epoch)."""
        return [
            float(extra.get(path, 0.0))
            for extra in self._group_extras("group_estimates")
        ]

    def group_truths(self, path: str) -> List[float]:
        """The region's per-epoch loss-free truths (0.0 when absent)."""
        return [
            float(extra.get(path, 0.0))
            for extra in self._group_extras("group_truths")
        ]

    def group_rms_error(self, path: str) -> float:
        """RMS of estimate - truth over the region's recorded epochs (an
        epoch whose truth is non-finite adds no deviation, as in
        :meth:`RunResult.rms_error`)."""
        estimates = self.group_estimates(path)
        truths = self.group_truths(path)
        if not estimates:
            return 0.0
        total = sum(
            (estimate - truth) ** 2
            for estimate, truth in zip(estimates, truths)
            if math.isfinite(truth)
        )
        return (total / len(estimates)) ** 0.5

    def load_epochs(self) -> List[EpochResult]:
        """The run's full epoch timeline, reloaded lazily when needed.

        Under ``all`` retention this is simply ``result.epochs``. When a
        retention policy dropped epochs from RAM and the config names a
        result store, the timeline is reloaded from the store (keyed by
        the config's digest). A truncated run with no store returns just
        the retained tail — the best the report can do.
        """
        if (
            self.config.storage is not None
            and len(self.result.epochs) < self.result.num_epochs
        ):
            from repro.storage import load_epochs

            return load_epochs(
                self.config.storage, config_digest(self.config)
            )
        return list(self.result.epochs)

    def render(self) -> str:
        if self.config.queries is not None:
            target = f"workload[{len(self.config.queries)} queries]"
        elif self.config.query is not None:
            target = self.config.query
        else:
            target = self.config.aggregate
        lines = [
            f"scheme={self.config.scheme} failure={self.config.failure} "
            f"seed={self.config.seed} epochs={self.config.epochs} "
            f"aggregate=" + target,
            f"rms_error={self.rms_error():.4f} "
            f"mean_contributing={self.mean_contributing_fraction():.3f} "
            f"words/epoch={self.words_per_epoch():.0f}",
        ]
        if self.is_workload():
            for name in self.query_names():
                result = self.query_results[name]
                lines.append(
                    f"  query {name}: rms_error={result.rms_error():.4f}"
                )
        return "\n".join(lines)


@dataclass
class SweepReport:
    """Configs and results of one sweep, with a renderable summary table."""

    configs: List[RunConfig]
    results: List[RunResult]

    def rows(self) -> List[Tuple[RunConfig, RunResult]]:
        return list(zip(self.configs, self.results))

    def reports(self) -> List[RunReport]:
        """One :class:`RunReport` per row (per-query results included)."""
        return [RunReport(config, result) for config, result in self.rows()]

    def rms_by_scheme(self) -> Dict[str, List[float]]:
        """Scheme -> RMS errors in config order."""
        series: Dict[str, List[float]] = {}
        for config, result in self.rows():
            series.setdefault(config.scheme, []).append(result.rms_error())
        return series

    def render(self) -> str:
        """The summary table: failure, scheme and seed, then one column per
        other config field whose value differs across the rows (a swept
        axis), then the row's metrics."""
        keys = ["failure", "scheme", "seed"]
        keys += [
            field.name
            for field in dataclasses.fields(RunConfig)
            if field.name not in keys
            and any(
                getattr(config, field.name) != getattr(self.configs[0], field.name)
                for config in self.configs
            )
        ]
        headers = keys + ["rms_error", "mean_contributing", "words/epoch"]
        table_rows = []
        for config, result in self.rows():
            report = RunReport(config, result)
            table_rows.append(
                [_field_text(key, getattr(config, key)) for key in keys]
                + [
                    f"{result.rms_error():.4f}",
                    f"{report.mean_contributing_fraction():.3f}",
                    f"{report.words_per_epoch():.0f}",
                ]
            )
        return format_table(headers, table_rows)


def _field_text(name: str, value: object) -> str:
    """A config field's value as one table cell: strings as they are, any
    other value as its JSON encoding."""
    encode = _FIELD_ENCODERS.get(name)
    value = encode(value) if encode else value
    return value if isinstance(value, str) else json.dumps(value)


def expand_grid(
    base: RunConfig, **axes: Sequence[object]
) -> List[RunConfig]:
    """The cross product of ``axes`` applied over a base config.

    Axes vary in keyword order, last axis fastest — deterministic, so grid
    results align index-for-index across runs and caches.

    >>> base = RunConfig(scheme="TAG", num_sensors=40, epochs=2)
    >>> grid = expand_grid(base, scheme=["TAG", "SD"],
    ...                    failure=["none", "global:0.3"])
    >>> [(c.scheme, c.failure) for c in grid]
    [('TAG', 'none'), ('TAG', 'global:0.3'), ('SD', 'none'), ('SD', 'global:0.3')]
    """
    names = list(axes)
    for name in names:
        if not isinstance(axes[name], (list, tuple)):
            raise ConfigurationError(
                f"grid axis {name!r} must be a list/tuple of values"
            )
    return [
        base.replace(**dict(zip(names, values)))
        for values in itertools.product(*(axes[name] for name in names))
    ]


# -- the session -----------------------------------------------------------


@dataclass
class Session:
    """Executes configs — serially, pooled, and/or against a result cache.

    Attributes:
        jobs: worker processes for multi-config calls; ``None``/<= 1 runs
            serially (single-CPU hosts always do).
        cache_dir: directory of JSON result files keyed by
            :func:`config_digest`; ``None`` disables caching. Cached and
            fresh executions of a config are byte-identical.
        memory_cache: capacity of the in-memory LRU of results keyed by
            :func:`config_digest`; ``None`` (the default) disables it, so
            short-lived sessions behave exactly as before. Long-running
            processes (the aggregation service) set a bound: without one
            the digest cache would grow without limit. Identical configs
            fan out of the LRU without re-execution; hit/miss/eviction
            counters surface via :meth:`cache_stats` (and the service's
            ``GET /stats``).

    A session is safe to share across threads: the LRU and the disk cache
    are guarded by one lock, and concurrent :meth:`run` calls for the same
    digest return digest-identical results (the run itself happens outside
    the lock — at worst two threads race to compute the same entry, and
    either result is byte-identical by the determinism contract).
    """

    jobs: Optional[int] = None
    cache_dir: Optional[Union[str, pathlib.Path]] = None
    memory_cache: Optional[int] = None

    def __post_init__(self) -> None:
        if self.memory_cache is not None and self.memory_cache < 1:
            raise ConfigurationError(
                "memory_cache must be a positive capacity or None"
            )
        self._lock = threading.Lock()
        self._memory: "collections.OrderedDict[str, RunResult]" = (
            collections.OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def cache_stats(self) -> Dict[str, object]:
        """Hit/miss/eviction counters and occupancy of the in-memory LRU."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._memory),
                "capacity": self.memory_cache,
            }

    def run(self, config: RunConfig) -> RunReport:
        """Execute one config (through the cache, when configured)."""
        [result] = self.run_many([config])
        return RunReport(config=config, result=result)

    def sweep(
        self,
        grid: Union[Sequence[RunConfig], Mapping[str, Sequence[object]]],
        base: Optional[RunConfig] = None,
    ) -> SweepReport:
        """Execute a grid of configs with deterministic result ordering.

        ``grid`` is either an explicit config sequence or a mapping of
        field name -> values, expanded over ``base`` via
        :func:`expand_grid`.
        """
        if isinstance(grid, Mapping):
            if base is None:
                raise ConfigurationError(
                    "sweeping a {field: values} grid needs a base config"
                )
            configs = expand_grid(base, **grid)
        else:
            configs = list(grid)
            for config in configs:
                if not isinstance(config, RunConfig):
                    raise ConfigurationError(
                        "sweep grids hold RunConfig instances, got "
                        f"{type(config).__name__}"
                    )
        return SweepReport(configs=configs, results=self.run_many(configs))

    def run_many(self, configs: Sequence[RunConfig]) -> List[RunResult]:
        """Execute configs; results align index-for-index with the input.

        Cached configs load without touching the pool; only misses are
        dispatched, and fresh results are written back before returning.
        This is the one result cache in the system: ``repro sweep``, the
        figure experiments and ``run-config`` all execute through it.
        """
        results: List[Optional[RunResult]] = [None] * len(configs)
        misses: List[int] = []
        for index, config in enumerate(configs):
            cached = self._load(config)
            if cached is not None:
                results[index] = cached
            else:
                misses.append(index)
        if misses:
            fresh = parallel_map(
                run_config_result,
                [configs[index] for index in misses],
                jobs=self.jobs,
            )
            for index, result in zip(misses, fresh):
                results[index] = result
                self._store(configs[index], result)
        return results  # type: ignore[return-value]

    # -- internals --------------------------------------------------------

    def _path(self, digest: str) -> Optional[pathlib.Path]:
        if self.cache_dir is None:
            return None
        return pathlib.Path(self.cache_dir) / f"{digest}.json"

    def _remember(self, digest: str, result: RunResult) -> None:
        """Insert into the LRU, evicting the least recently used entry."""
        if self.memory_cache is None:
            return
        with self._lock:
            self._memory[digest] = result
            self._memory.move_to_end(digest)
            while len(self._memory) > self.memory_cache:
                self._memory.popitem(last=False)
                self._evictions += 1

    def _load(self, config: RunConfig) -> Optional[RunResult]:
        digest = config_digest(config)
        if self.memory_cache is not None:
            with self._lock:
                cached = self._memory.get(digest)
                if cached is not None:
                    self._memory.move_to_end(digest)
                    self._hits += 1
                    return cached
                self._misses += 1
        result = self._load_disk(digest)
        if result is not None:
            self._remember(digest, result)
        return result

    def _load_disk(self, digest: str) -> Optional[RunResult]:
        path = self._path(digest)
        if path is None or not path.exists():
            return None
        from repro.errors import ReproError
        from repro.serialization import from_jsonable

        # Any unusable entry — corrupt JSON, missing keys, a payload from
        # a newer format, an unreadable file — means recompute, never
        # crash: the cache is an accelerator, not a source of truth.
        try:
            payload = json.loads(path.read_text())
            result = payload["result"] if isinstance(payload, dict) else None
            if not isinstance(result, dict):
                return None
            return from_jsonable(result)
        except (ValueError, KeyError, OSError, ReproError):
            return None

    def _store(self, config: RunConfig, result: RunResult) -> None:
        digest = config_digest(config)
        self._remember(digest, result)
        path = self._path(digest)
        if path is None:
            return
        from repro.serialization import to_jsonable

        payload = {
            "config": config.to_jsonable(),
            "result": to_jsonable(result),
        }
        # One writer at a time: concurrent threads storing the same digest
        # would race on the shared .tmp name.
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)


# -- named figure experiments ---------------------------------------------

#: Canonical configs of the experiments that run the scalar engine,
#: resolved through the registries. Multi-scheme figures describe their
#: headline scheme (TD); :mod:`repro.experiments` regenerates the full
#: figure by sweeping the entry over its axes (``scheme``, ``failure``,
#: ``threshold``, ``adapt_interval``) — the entry is the experiment's only
#: definition, and a quick run is a ``replace`` of its sizes. The
#: domination-factor geometry sweeps and the frequent-items experiments
#: (Figures 7-9, Table 1's Freq. Items rows, the eps_a/eps_b split sweep)
#: are not scalar-engine runs and are absent here.
EXPERIMENT_CONFIGS: Dict[str, RunConfig] = {
    "table1": RunConfig(
        scheme="TD",
        failure="global:0.2",
        aggregate="count",
        reading="constant:1.0",
        epochs=30,
        converge_epochs=100,
    ),
    "fig2": RunConfig(
        scheme="TD",
        failure="global:0.3",
        aggregate="count",
        reading="constant:1.0",
        epochs=100,
        converge_epochs=150,
    ),
    # Figure 4 reads the *converged* delta region, not a measured series.
    # Its 85% target (the paper's is 90%): with our deeper rings, tree
    # tributaries outside the failure region deliver ~85% of their readings
    # at 5% link loss, so 90% can only be met by switching most of the
    # network to multi-path — which hides the directional growth the
    # figure is about.
    "fig4": RunConfig(
        scheme="TD",
        failure="regional:0.3:0.05",
        aggregate="sum",
        reading="uniform:10:100:0",
        epochs=100,
        converge_epochs=200,
        threshold=0.85,
    ),
    "fig5a": RunConfig(
        scheme="TD",
        failure="global:0.3",
        aggregate="sum",
        reading="uniform:10:100:0",
        epochs=100,
        converge_epochs=150,
    ),
    "fig5b": RunConfig(
        scheme="TD",
        failure="regional:0.3:0.05",
        aggregate="sum",
        reading="uniform:10:100:0",
        epochs=100,
        converge_epochs=150,
    ),
    "fig6": RunConfig(
        scheme="TD",
        failure="timeline",
        aggregate="sum",
        reading="uniform:10:100:0",
        epochs=400,
        start_epoch=0,
        converge_epochs=0,
        seed=0,
    ),
    "labdata": RunConfig(
        scheme="TD",
        topology="labdata",
        num_sensors=54,
        scenario_seed=7,
        failure="none",
        aggregate="sum",
        reading="diurnal:7",
        epochs=100,
        converge_epochs=160,
    ),
    # Battery lifetimes compare steady-state energy: no stabilisation, no
    # adaptation, epochs from 0.
    "lifetime": RunConfig(
        scheme="TD",
        failure="global:0.1",
        aggregate="count",
        reading="constant:1.0",
        num_sensors=400,
        epochs=60,
        start_epoch=0,
        converge_epochs=0,
        adapt_interval=0,
    ),
    # The design-knob sweeps of ``experiments.sweeps``: the threshold and
    # adaptation-cadence grids share one base; the expansion heuristics
    # race a short stabilisation budget and are then measured frozen.
    "sweep_td": RunConfig(
        scheme="TD",
        failure="global:0.2",
        aggregate="count",
        reading="constant:1.0",
        num_sensors=300,
        epochs=100,
        converge_epochs=120,
    ),
    "sweep_heuristic": RunConfig(
        scheme="TD",
        failure="global:0.3",
        aggregate="count",
        reading="constant:1.0",
        num_sensors=300,
        epochs=80,
        converge_epochs=15,
        adapt_interval=0,
    ),
    # Figure-6-style timeline with *node* churn instead of link loss: the
    # paper's regional quadrant goes dark mid-run (every node in it dies at
    # epoch 100) and comes back at epoch 300, under a mild global loss.
    # Orphaned subtrees reattach through tree repair; re-ringing and the
    # delta adaptation absorb the membership change.
    "churn_timeline": RunConfig(
        scheme="TD",
        failure="global:0.1",
        aggregate="sum",
        reading="uniform:10:100:0",
        epochs=400,
        start_epoch=0,
        converge_epochs=0,
        seed=0,
        churn="blackout:100:0:0:10:10:300",
    ),
    # The paper's Section 2 setting made concrete: one network run serving
    # a portfolio of concurrent queries — a scalar pair, a predicated
    # windowed average, and a Section 6 heavy-hitters summary — in one
    # simulator pass over one channel (shared delivery draws, piggybacked
    # payloads, combined word billing).
    "multiquery": RunConfig(
        scheme="TD",
        failure="global:0.2",
        reading="uniform:10:100:0",
        epochs=30,
        converge_epochs=100,
        queries=(
            QuerySpec(name="count", aggregate="count"),
            QuerySpec(name="sum", aggregate="sum"),
            QuerySpec(
                name="hot-mean",
                query="SELECT avg WHERE value > 50 WINDOW 5 MEAN",
            ),
            QuerySpec(name="heavy", aggregate="heavy_hitters:0.05"),
        ),
    ),
    # The Fig-2 setting sliced spatially: one grouped pass answers the
    # network-wide mean AND a depth-2 quadtree's per-region means, with
    # per-region cubes riding the scheme's ordinary messages (combined
    # word billing — cheaper than running the regions standalone).
    "groupby_regions": RunConfig(
        scheme="TD",
        failure="global:0.3",
        reading="uniform:10:100:0",
        query="SELECT avg GROUP BY region:2",
        epochs=60,
        converge_epochs=150,
    ),
}


def describe_experiment(name: str) -> RunConfig:
    """The resolved canonical config of a named experiment.

    >>> describe_experiment("fig2").failure
    'global:0.3'
    """
    try:
        return EXPERIMENT_CONFIGS[name]
    except KeyError:
        raise ConfigurationError(
            f"no config form for experiment {name!r}; describable: "
            + ", ".join(sorted(EXPERIMENT_CONFIGS))
        ) from None


def _register_codecs() -> None:
    """Join the wire format: ``run-config`` and ``run-report`` payloads.

    Registered here (rather than in :mod:`repro.serialization`) so the
    codec lives next to the schema; serialization bootstraps this module
    on demand when it meets one of these tags first.
    """
    from repro import serialization

    serialization.register_codec(
        RunConfig,
        _CONFIG_TAG,
        lambda config: dict(config.to_jsonable()),
        RunConfig.from_jsonable,
    )
    serialization.register_codec(
        RunReport,
        "run-report",
        lambda report: {
            "config": report.config.to_jsonable(),
            "result": serialization.to_jsonable(report.result),
        },
        lambda data: RunReport(
            config=RunConfig.from_jsonable(data["config"]),
            result=serialization.from_jsonable(data["result"]),
        ),
    )


_register_codecs()


__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "RUN_CACHE_VERSION",
    "EXPERIMENT_CONFIGS",
    "EngineOptions",
    "QuerySpec",
    "QueryWorkload",
    "RunConfig",
    "RunReport",
    "Session",
    "SweepReport",
    "available",
    "config_digest",
    "describe_experiment",
    "expand_grid",
    "run_config_result",
    "split_workload_result",
]
