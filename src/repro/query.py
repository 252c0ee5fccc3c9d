"""Declarative continuous queries: predicates, windows, and aggregates.

The paper's aggregation set-up (Section 2): "Aggregate queries, which may
be one-time or continuous, are sent from the base station to all the
nodes. Queries may aggregate over a single value at each sensor (e.g., the
most recent reading) or over a window of values from each sensor's stream
of readings. Each sensor node evaluates the query locally (including any
predicates), and produces a local result."

This module supplies that query layer over the aggregation schemes:

* :class:`WindowedReadings` — per-sensor sliding windows (MEAN / SUM /
  MIN / MAX / LAST over the most recent ``size`` readings);
* :class:`FilteredAggregate` — WHERE-clause evaluation at the sensor: a
  node whose windowed value fails the predicate contributes the
  aggregate's neutral element but keeps relaying (and keeps counting
  toward the %-contributing adaptation feedback — the paper's threshold
  is about nodes *accounted for*, not nodes matching). It lives in
  :mod:`repro.aggregates.filtered` and is re-exported here;
* :class:`ContinuousQuery` — the bundle, with :func:`parse_query` parsing
  a TinyDB-flavoured one-liner::

      SELECT avg WHERE value > 20 WINDOW 5 MEAN

Compile a query against a readings source with :meth:`ContinuousQuery.build`
and hand the results to any scheme (TAG / SD / Tributary-Delta).

SELECT targets resolve through the aggregate registry
(:mod:`repro.registry`), so every registered aggregate — the built-in
``count``/``sum``/``avg``/``min``/``max``/``sample``/``distinct``/
``moments`` and anything added via ``register_aggregate`` — is queryable
with no changes here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.base import Aggregate
from repro.aggregates.filtered import FilteredAggregate
from repro.errors import ConfigurationError
from repro.network.simulator import ReadingFn, gather_reading_block
from repro.registry import AGGREGATES, REGIONS, build_aggregate, build_regions
from repro.spatial.grouped import GroupedAggregate
from repro.spatial.regions import parse_region_spec

#: value predicate applied at each sensor.
Predicate = Callable[[float], bool]

#: window reduction names -> implementations over a non-empty sequence
#: (oldest reading first).
_WINDOW_OPS: Dict[str, Callable[[Sequence[float]], float]] = {
    "MEAN": lambda values: sum(values) / len(values),
    "SUM": lambda values: float(sum(values)),
    "MIN": lambda values: float(min(values)),
    "MAX": lambda values: float(max(values)),
    "LAST": lambda values: float(values[-1]),
}

#: SELECT targets: a live read-only view of the aggregate registry.
AGGREGATE_FACTORIES = AGGREGATES.view()

_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
}


class WindowedReadings:
    """A sliding window over each sensor's stream of readings.

    The windowed value at epoch e reduces the source readings at epochs
    ``max(0, e - size + 1) .. e`` — early epochs use the available prefix,
    so the window "fills up" like a real deployment's would.

    Sources are pure functions of ``(node, epoch)`` — the workload contract
    — so windows hold no values: every :meth:`block` reads its cells'
    windows as ONE source block and reduces each cell's slice, whatever
    order epochs are asked in (the engine, ground truth and admission
    probes all read the same epoch at different times). The only state is
    where each node's stream segment starts (churn).
    """

    def __init__(
        self, source: ReadingFn, size: int, op: str = "MEAN"
    ) -> None:
        if size < 1:
            raise ConfigurationError("window size must be at least 1")
        op = op.upper()
        if op not in _WINDOW_OPS:
            raise ConfigurationError(
                f"unknown window op {op!r}; choose from {sorted(_WINDOW_OPS)}"
            )
        self._source = source
        self.size = size
        self.op = op
        self._reduce = _WINDOW_OPS[op]
        #: node -> first epoch of the node's current stream segment. A node
        #: whose stream was interrupted by churn (died, then rejoined)
        #: restarts its window here: readings "sensed" while it was down
        #: never enter a window. Absent = streaming since epoch 0.
        self._segment_starts: Dict[int, int] = {}

    def __call__(self, node: int, epoch: int) -> float:
        return float(self.block([node], (epoch,))[0, 0])

    def block(self, nodes: Sequence[int], epochs: Sequence[int]) -> np.ndarray:
        """Windowed values as a float64 ``(epochs, nodes)`` matrix.

        One ``gather_reading_block`` over the block's widest window, ``max(0,
        min(epochs) - size + 1) .. max(epochs)``; cell ``[j, i]`` reduces
        node ``i``'s readings from ``max(epochs[j] - size + 1, 0, its segment
        start)`` to ``epochs[j]``, oldest first. MEAN and SUM are one
        sequential column sum — each window's readings added oldest first,
        exactly as ``sum`` adds them — so every cell is bit for bit the
        scalar reduction; the other reductions run per cell.
        """
        epoch_column = np.asarray(epochs, dtype=np.int64).reshape(-1)
        if not len(epoch_column) or not len(nodes):
            return np.zeros((len(epoch_column), len(nodes)), dtype=np.float64)
        low = max(0, int(epoch_column.min()) - self.size + 1)
        source = gather_reading_block(
            self._source, nodes, range(low, int(epoch_column.max()) + 1)
        )
        starts = self._segment_starts
        # Each cell's oldest reading: the window's start, clipped to the
        # stream and to the node's segment.
        first = np.maximum(epoch_column - self.size + 1, 0)[:, None]
        if starts:
            first = np.maximum(
                first,
                np.fromiter(
                    (starts.get(node, 0) for node in nodes),
                    dtype=np.int64,
                    count=len(nodes),
                ),
            )
        first = np.broadcast_to(first, (len(epoch_column), len(nodes)))
        count = epoch_column[:, None] - first + 1
        if self.op in ("MEAN", "SUM") and (count > 0).all():
            total = np.zeros(first.shape, dtype=np.float64)
            for offset in range(self.size - 1, -1, -1):
                times = epoch_column - offset
                total += np.where(
                    times[:, None] >= first, source[np.maximum(times - low, 0)], 0.0
                )
            return total / count if self.op == "MEAN" else total
        columns = source.T.tolist()
        reduce = self._reduce
        return np.array(
            [
                [
                    reduce(column[start - low : epoch - low + 1])
                    for column, start in zip(columns, row)
                ]
                for epoch, row in zip(epoch_column.tolist(), first.tolist())
            ],
            dtype=np.float64,
        ).reshape(len(epoch_column), len(nodes))

    def on_membership_change(self, update) -> None:
        """Churn hook: a rejoining node's window restarts at its rejoin.

        A node that rejoins (a blackout lifting) must not span readings it
        never sensed, so its window starts at the rejoin epoch. A death
        needs nothing: no window is cached. The simulator forwards every
        applied :class:`~repro.network.churn.MembershipUpdate` here when
        the workload exposes this hook; no-churn runs never call it, so
        their values are untouched.
        """
        for node in update.joined:
            self._segment_starts[node] = update.epoch

    def checkpoint_state(self) -> Dict[str, int]:
        """Checkpoint hook: the segment starts are the only state, so a
        resumed run that restores them reads byte-identical windows."""
        return {str(node): start for node, start in self._segment_starts.items()}

    def restore_state(self, state: Dict[str, int]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self._segment_starts = {
            int(node): start for node, start in state.items()
        }


def groupable_aggregates() -> List[str]:
    """Registered aggregate names that accept a GROUP BY clause."""
    names = []
    for name in AGGREGATES.available():
        try:
            if build_aggregate(name).supports_group_by():
                names.append(name)
        except ConfigurationError:
            continue
    return sorted(names)


@dataclass(frozen=True)
class WhereClause:
    """``value <comparator> <constant>`` evaluated at each sensor."""

    comparator: str
    constant: float

    def __post_init__(self) -> None:
        if self.comparator not in _COMPARATORS:
            raise ConfigurationError(
                f"unknown comparator {self.comparator!r}; "
                f"choose from {sorted(_COMPARATORS)}"
            )

    def predicate(self) -> Predicate:
        compare = _COMPARATORS[self.comparator]
        constant = self.constant
        return lambda value: compare(value, constant)

    def render(self) -> str:
        # Short form only where it reads back as the same predicate.
        constant = f"{self.constant:g}"
        if float(constant) != self.constant:
            constant = repr(self.constant)
        return f"value {self.comparator} {constant}"


@dataclass(frozen=True)
class ContinuousQuery:
    """A declarative continuous aggregation query.

    Attributes:
        select: a registered aggregate name (``count``/``sum``/``avg``/
            ``min``/``max``/``sample``/``distinct``/``moments`` out of the
            box; anything added via ``register_aggregate`` also works).
        where: optional predicate on the (windowed) sensor value.
        window: optional window size (epochs); 1 or None = latest reading.
        window_op: window reduction (MEAN/SUM/MIN/MAX/LAST).
        group_by: optional region spec (``region[:depth[:budget]]``) — the
            run answers per region of the named hierarchy at that depth,
            coarsening to ancestor regions when the optional word budget
            would be exceeded. Only groupable aggregates accept it.
    """

    select: str
    where: Optional[WhereClause] = None
    window: Optional[int] = None
    window_op: str = "MEAN"
    group_by: Optional[str] = None

    def __post_init__(self) -> None:
        head = self.select.split(":", 1)[0]
        if head not in AGGREGATE_FACTORIES:
            raise ConfigurationError(
                f"unknown aggregate {self.select!r}; "
                f"choose from {sorted(AGGREGATE_FACTORIES)}"
            )
        aggregate = build_aggregate(self.select)  # validate spec eagerly
        if self.window is not None and self.window < 1:
            raise ConfigurationError("window must be at least 1 epoch")
        if self.window_op.upper() not in _WINDOW_OPS:
            raise ConfigurationError(
                f"unknown window op {self.window_op!r}"
            )
        if self.group_by is not None:
            if not aggregate.supports_group_by():
                raise ConfigurationError(
                    f"clause 'GROUP BY {self.group_by}' is not supported "
                    f"for SELECT target {self.select!r}; groupable "
                    f"aggregates: {', '.join(groupable_aggregates())}"
                )
            name, _depth, _budget = parse_region_spec(self.group_by)
            if name not in REGIONS:
                raise ConfigurationError(
                    f"unknown region hierarchy {name!r} in clause "
                    f"'GROUP BY {self.group_by}'; registered hierarchies: "
                    f"{', '.join(REGIONS.available())}"
                )

    def build(
        self, source: ReadingFn, deployment=None
    ) -> Tuple[Aggregate, ReadingFn]:
        """Compile to (aggregate, readings) for any aggregation scheme.

        Grouped queries additionally need the ``deployment`` (node
        positions) to resolve their region hierarchy.
        """
        readings: ReadingFn = source
        if self.window is not None and self.window > 1:
            readings = WindowedReadings(source, self.window, self.window_op)
        aggregate = build_aggregate(self.select)
        if self.where is not None:
            aggregate = FilteredAggregate(aggregate, self.where.predicate())
        if self.group_by is not None:
            if deployment is None:
                raise ConfigurationError(
                    f"query {self.render()!r} has a GROUP BY clause but no "
                    "deployment was supplied; grouped queries need node "
                    "positions to resolve regions"
                )
            hierarchy, depth, budget = build_regions(
                self.group_by, deployment
            )
            aggregate = GroupedAggregate(
                aggregate, hierarchy, depth, word_budget=budget, spec=self.group_by
            )
        return aggregate, readings

    def render(self) -> str:
        parts = [f"SELECT {self.select}"]
        if self.where is not None:
            parts.append(f"WHERE {self.where.render()}")
        if self.group_by is not None:
            parts.append(f"GROUP BY {self.group_by}")
        if self.window is not None and self.window > 1:
            parts.append(f"WINDOW {self.window} {self.window_op.upper()}")
        return " ".join(parts)


def parse_queries(text: str) -> List[ContinuousQuery]:
    """Parse ``SELECT a[, b, ...] [WHERE ...] [WINDOW n [op]]``, one query
    per SELECT target.

    The multi-target form is the workload one-liner: every target becomes
    its own :class:`ContinuousQuery` sharing the WHERE predicate and the
    WINDOW clause, ready to run concurrently through one simulator pass
    (``RunConfig(query="SELECT count, sum")``).

    >>> [q.select for q in parse_queries("SELECT count, sum WHERE value > 5")]
    ['count', 'sum']
    """
    tokens = text.split()
    if not tokens:
        raise ConfigurationError("empty query")
    position = 0

    def expect(keyword: str) -> None:
        nonlocal position
        if position >= len(tokens) or tokens[position].upper() != keyword:
            raise ConfigurationError(
                f"expected {keyword} at token {position} of {text!r}"
            )
        position += 1

    def take() -> str:
        nonlocal position
        if position >= len(tokens):
            raise ConfigurationError(f"query {text!r} ended unexpectedly")
        token = tokens[position]
        position += 1
        return token

    expect("SELECT")
    target_tokens: List[str] = [take()]
    while position < len(tokens) and tokens[position].upper() not in (
        "WHERE",
        "WINDOW",
        "GROUP",
    ):
        target_tokens.append(take())
    selects = [
        target.strip().lower()
        for target in " ".join(target_tokens).split(",")
    ]
    if any(not target for target in selects):
        raise ConfigurationError(
            f"empty SELECT target in {text!r} (stray comma?)"
        )
    where: Optional[WhereClause] = None
    window: Optional[int] = None
    window_op = "MEAN"
    group_by: Optional[str] = None
    while position < len(tokens):
        keyword = take().upper()
        if keyword == "WHERE":
            subject = take().lower()
            if subject != "value":
                raise ConfigurationError(
                    f"only 'value' predicates are supported, got {subject!r}"
                )
            comparator = take()
            try:
                constant = float(take())
            except ValueError as error:
                raise ConfigurationError(
                    f"WHERE constant is not a number in {text!r}"
                ) from error
            where = WhereClause(comparator=comparator, constant=constant)
        elif keyword == "WINDOW":
            try:
                window = int(take())
            except ValueError as error:
                raise ConfigurationError(
                    f"WINDOW size is not an integer in {text!r}"
                ) from error
            if position < len(tokens) and tokens[position].upper() in _WINDOW_OPS:
                window_op = take().upper()
        elif keyword == "GROUP":
            expect("BY")
            if position >= len(tokens):
                raise ConfigurationError(
                    f"clause 'GROUP BY' in {text!r} is missing its region "
                    "spec; expected GROUP BY NAME[:DEPTH[:BUDGET]], e.g. "
                    "'GROUP BY region:2'"
                )
            group_by = take().lower()
        else:
            raise ConfigurationError(
                f"unexpected token {keyword!r} in {text!r}"
            )
    return [
        ContinuousQuery(
            select=select,
            where=where,
            window=window,
            window_op=window_op,
            group_by=group_by,
        )
        for select in selects
    ]


def parse_query(text: str) -> ContinuousQuery:
    """Parse ``SELECT <agg> [WHERE value <op> <c>] [WINDOW <n> [<op>]]``.

    Case-insensitive keywords; the only predicate subject is ``value`` (a
    sensor's current, possibly windowed, reading) — matching the paper's
    single-attribute query model. A multi-target ``SELECT a, b`` one-liner
    is a *workload*, not a single query: parse it with
    :func:`parse_queries` (or hand it to ``RunConfig.query``, which expands
    it into one).

    >>> parse_query("SELECT avg WHERE value > 20 WINDOW 5 MEAN").select
    'avg'
    """
    queries = parse_queries(text)
    if len(queries) != 1:
        raise ConfigurationError(
            f"query {text!r} has {len(queries)} SELECT targets; multi-target"
            " queries run as workloads — use parse_queries() or a RunConfig"
            " 'queries'/'query' workload"
        )
    return queries[0]


def spec_query(spec) -> ContinuousQuery:
    """The :class:`ContinuousQuery` of a spec with ``query`` and
    ``aggregate`` attributes (a :class:`~repro.api.QuerySpec`).

    An aggregate spec ``X`` is ``SELECT X``: both build the same aggregate
    over the same readings, so ``{"aggregate": "sum"}`` and ``{"query":
    "select sum"}`` are one query.
    """
    if spec.query is not None:
        return parse_query(spec.query)
    return ContinuousQuery(select=spec.aggregate)
