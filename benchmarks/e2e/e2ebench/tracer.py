"""In-memory span tracing, installed from the benchmark around ``repro``.

Nothing under ``src/`` knows about tracing. :func:`install_seams` replaces
the public function at each layer boundary (a class method or a module
attribute) with a wrapper that records one span per call; :meth:`Tracer.
restore` puts the original objects back. Spans stay in memory: name,
start, end, the span that caused them, the run they belong to, and a unit
count (readings served, for the reading layer). Each thread keeps its own
stack, so the service's engine thread and HTTP workers nest independently.

A layer's **self time** is its spans' duration minus the part their child
spans cover, so self times of all layers add up to the time under the
outermost spans and no second is counted twice.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from . import metrics as M

# Span record layout (a list, mutated once on exit to set the end time).
NAME, START, END, PARENT, RUN, UNITS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run_label: Optional[str] = None
        self._local = threading.local()
        self._stacks: List[list] = []
        self._restores: List[Callable[[], bool]] = []
        self._runs = 0
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks.append(stack)
        return stack

    def _new_run(self) -> str:
        with self._lock:
            self._runs += 1
            return self.run_label or f"run-{self._runs}"

    def wrapper(self, original: Callable, name: str, units=None) -> Callable:
        """``original`` wrapped in a span named ``name``.

        ``units(args)`` optionally counts the work items of one call.
        """
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            record = [
                name,
                0.0,
                0.0,
                parent,
                parent[RUN] if parent is not None else self._new_run(),
                units(args) if units is not None else 1,
            ]
            spans.append(record)
            stack.append(record)
            record[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, units=None) -> None:
        """Replace ``owner.attr`` (class method or module attribute)."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrapper(original, name, units))

        def restore() -> bool:
            setattr(owner, attr, original)
            return vars(owner)[attr] is original

        self._restores.append(restore)

    def wrap_registry(self, registry, key: str, name: str) -> None:
        """Replace one entry of a ``repro.registry.Registry``."""
        original = registry.resolve(key)
        registry.register(key, self.wrapper(original, name))

        def restore() -> bool:
            registry.register(key, original)
            return registry.resolve(key) is original

        self._restores.append(restore)

    def restore(self) -> bool:
        """Put every original back; True when each is the same object."""
        restored = [restore() for restore in reversed(self._restores)]
        self._restores.clear()
        return all(restored)

    def open_spans(self) -> int:
        """Spans still on some thread's stack (0 once all calls returned)."""
        with self._lock:
            return sum(len(stack) for stack in self._stacks)


def summarize(spans: List[list]) -> Dict[str, dict]:
    """Per span name: calls, units, total and self seconds."""
    covered: Dict[int, float] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            covered[id(parent)] = (
                covered.get(id(parent), 0.0) + span[END] - span[START]
            )
    layers: Dict[str, dict] = {}
    for span in spans:
        layer = layers.setdefault(
            span[NAME],
            {"calls": 0, "units": 0, "total_s": 0.0, "self_s": 0.0},
        )
        duration = span[END] - span[START]
        layer["calls"] += 1
        layer["units"] += span[UNITS]
        layer["total_s"] += duration
        layer["self_s"] += duration - covered.get(id(span), 0.0)
    return layers


def root_seconds(spans: List[list]) -> float:
    """Time under the outermost spans = the sum of all self times."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)


def children_named(spans: List[list], parent_name: str, child_name: str):
    """(parents with such a child, parents without) among ``parent_name``."""
    have = {
        id(s[PARENT])
        for s in spans
        if s[NAME] == child_name and s[PARENT] is not None
    }
    parents = [s for s in spans if s[NAME] == parent_name]
    with_child = sum(1 for s in parents if id(s) in have)
    return with_child, len(parents) - with_child


def _subclasses(cls):
    seen, queue = [], [cls]
    while queue:
        current = queue.pop()
        seen.append(current)
        queue.extend(current.__subclasses__())
    return seen


def install_seams(tracer: Tracer, config=None) -> None:
    """Wrap the public function at every layer seam of ``repro``.

    ``config`` (a RunConfig) names the registered topology builder to wrap;
    everything else is found on the modules and classes themselves.
    """
    import repro.api as api
    import repro.core.sd_scheme as sd_scheme
    import repro.core.tag_scheme as tag_scheme
    import repro.core.td_scheme as td_scheme
    import repro.network.packed as packed
    import repro.service.server as server
    import repro.storage as storage
    from repro.aggregates.base import Aggregate
    from repro.datasets.streams import UniformReadings
    from repro.network.links import Channel
    from repro.network.simulator import EpochSimulator
    from repro.registry import TOPOLOGIES
    from repro.service.engine import AggregationService
    from repro.service.streams import EpochRecord

    wrap = tracer.wrap
    wrap(api, "run_config_result", "api.run_config_result")
    wrap(api, "build_scenario", "api.build_scenario")
    wrap(api, "build_bushy_tree", "tree.build_bushy_tree")
    wrap(packed, "build_packed_topology", "network.topology_build")
    if config is not None:
        tracer.wrap_registry(
            TOPOLOGIES, config.topology, "network.topology_build"
        )

    wrap(UniformReadings, "batch", "datasets.batch", lambda a: len(a[1]))
    wrap(UniformReadings, "__call__", "datasets.scalar")

    for aggregate in _subclasses(Aggregate):
        for method in (
            "tree_local_block",
            "synopsis_local_block",
            "synopsis_local_block_packed",
        ):
            if method in vars(aggregate):
                wrap(aggregate, method, "aggregates.local_block")
        if "convert_block" in vars(aggregate):
            wrap(aggregate, "convert_block", "aggregates.convert_block")

    wrap(Channel, "plan_epochs", "links.plan_epochs")
    wrap(Channel, "transmit_epochs", "links.transmit_epochs")
    wrap(Channel, "transmit_batch", "links.transmit_batch")

    if tag_scheme.run_tag_block is not None:
        wrap(tag_scheme, "run_tag_block", "kernels.run_block")
    if sd_scheme.run_sd_block is not None:
        wrap(sd_scheme, "run_sd_block", "kernels.run_block")
    if td_scheme.precompute_conversions is not None:
        wrap(td_scheme, "precompute_conversions", "kernels.td_convert")

    for scheme in (
        tag_scheme.TagScheme,
        sd_scheme.SynopsisDiffusionScheme,
        td_scheme.TributaryDeltaScheme,
    ):
        wrap(scheme, "run_epochs", "core.run_epochs")
        wrap(scheme, "run_epoch", "core.run_epoch")
        wrap(scheme, "adapt", "core.adapt")
        wrap(scheme, "exact_answer", "core.exact_answer")

    wrap(EpochSimulator, "run", "simulator.run")
    wrap(EpochSimulator, "_record", "simulator.record")
    wrap(storage.ResultWriter, "append", "storage.append")

    wrap(AggregationService, "run_block", "service.run_block")
    wrap(AggregationService, "_apply_boundary", "service.apply_boundary")
    wrap(AggregationService, "_dispatch", "service.dispatch")
    wrap(AggregationService, "subscribe", "service.subscribe")
    wrap(server, "parse_submission", "service.subscribe")
    wrap(EpochRecord, "ndjson", "service.ndjson")


def layer_metrics(spans: List[list], wall_s: float) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced interval."""
    layers = summarize(spans)
    values: Dict[str, float] = {}
    for metric in M.SPAN_SECONDS + M.SPAN_COUNTS:
        span_name, _, kind = metric.rpartition(".")
        if span_name in layers and kind in ("s", "self_s"):
            values[metric] = layers[span_name]["self_s"]
        elif span_name in layers and kind == "calls":
            values[metric] = layers[span_name]["calls"]

    def units(name: str) -> int:
        return layers[name]["units"] if name in layers else 0

    readings = units("datasets.batch") + units("datasets.scalar")
    values["datasets.batch_frac"] = (
        units("datasets.batch") / readings if readings else 0.0
    )
    fused, plain = children_named(spans, "core.run_epochs", "kernels.run_block")
    values["kernels.fused_blocks"] = fused
    values["core.object_blocks"] = plain
    values["kernels.fused_frac"] = (
        fused / (fused + plain) if fused + plain else 0.0
    )
    # A whole block as the engine thread sees it (children included).
    values["service.run_block.s.p50"] = M.percentile(
        [s[END] - s[START] for s in spans if s[NAME] == "service.run_block"],
        0.5,
    )
    values["trace.spans"] = len(spans)
    values["trace.wall_s"] = wall_s
    values["untraced.s"] = max(0.0, wall_s - root_seconds(spans))
    return values
