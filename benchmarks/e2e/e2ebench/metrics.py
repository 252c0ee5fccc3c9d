"""The benchmark's vocabulary: workload and metric names, units, bounds.

This table is the single source of truth inside the benchmark; the root
``BENCHMARK.json`` repeats it for the driver and ``test_harness.py`` pins
the two against each other.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, NamedTuple, Sequence

SCHEMA = "repro-e2e-bench/1"

SCHEMES = ("TAG", "SD", "TD-Coarse", "TD")

#: name -> why the workload exists (one line each, as in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "fig6_fused": (
        "Fig-6 loss timeline, single sum, all four schemes via Session.run: "
        "the only workload where the fused array kernels run"
    ),
    "multiquery_object": (
        "4-query TD workload via Session.run: fused kernels are ineligible, "
        "so this is the object engine plus per-epoch convergence that every "
        "service request runs"
    ),
    "scale_packed": (
        "20k-node loss-free TAG on packed state, streamed and spilled to "
        "jsonl: topology/tree build, whole-population readings, truth rows, "
        "storage and memory"
    ),
    "serve_stream": (
        "real repro serve subprocess over HTTP, one long reader beside a "
        "closed-loop churner: steady streaming against admission and "
        "portfolio rebuilds at block boundaries"
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # end-to-end only: tolerated worsening of the median


#: Reported by every workload on the untraced pass (``--trace 0``). The
#: timing bounds are wide because the reference host is: its speed drifts by
#: ~10 % over a quarter of an hour (every workload slows together), which
#: ten runs see as a 5-11 % interquartile spread, and a bound should be three
#: times the spread. Memory and the simulated words repeat to within 1 %.
END_TO_END: Sequence[Metric] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("epochs_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("words_per_epoch", "words", "lower", 0.05),
)

#: Self seconds of a span name (``<span>.s`` / ``<span>.self_s``) and other
#: seconds the tracer derives.
SPAN_SECONDS = (
    "api.build_scenario.s",
    "api.run_config_result.self_s",
    "network.topology_build.s",
    "tree.build_bushy_tree.s",
    "datasets.batch.s",
    "datasets.scalar.s",
    "core.exact_answer.s",
    "aggregates.local_block.s",
    "aggregates.convert_block.s",
    "links.plan_epochs.s",
    "links.transmit_epochs.s",
    "links.transmit_batch.s",
    "kernels.run_block.s",
    "kernels.td_convert.s",
    "core.run_epochs.self_s",
    "core.run_epoch.self_s",
    "core.adapt.s",
    "simulator.run.self_s",
    "simulator.record.s",
    "storage.append.s",
    "service.run_block.s.p50",
    "service.apply_boundary.s",
    "service.dispatch.s",
    "service.subscribe.s",
    "service.ndjson.s",
    "untraced.s",
    "trace.wall_s",
)

#: Call counts of a span name (``<span>.calls``) and other counts.
SPAN_COUNTS = (
    "datasets.batch.calls",
    "datasets.scalar.calls",
    "core.exact_answer.calls",
    "aggregates.local_block.calls",
    "aggregates.convert_block.calls",
    "links.plan_epochs.calls",
    "links.transmit_epochs.calls",
    "links.transmit_batch.calls",
    "kernels.fused_blocks",
    "core.object_blocks",
    "core.adapt.calls",
    "storage.append.calls",
    "trace.spans",
    "service.epochs_run",
    "service.blocks_run",
    "service.admitted",
    "service.rejected",
    "service.shared_acquires",
    "service.records_dropped",
    "service.server_tracebacks",
)

#: Reported by every workload on the traced pass (``--trace 1``); a layer
#: that does no work on a workload reads 0.
PER_LAYER: Sequence[Metric] = (
    tuple(Metric(name, "s", "lower") for name in SPAN_SECONDS)
    + tuple(Metric(name, "count", "lower") for name in SPAN_COUNTS)
    + (
        Metric("datasets.batch_frac", "ratio", "higher"),
        Metric("kernels.fused_frac", "ratio", "higher"),
        Metric("storage.bytes_written", "bytes", "lower"),
        Metric("service.bytes_per_record", "bytes", "lower"),
        Metric("trace.overhead_frac", "ratio", "lower"),
        # The paper's currency, exact for a given seed (the golden digests
        # gate them; they carry no bound because a bound cannot be exact).
        Metric("core.rms_error", "ratio", "lower"),
        Metric("core.contributing_frac", "ratio", "higher"),
        # Untraced service timings, measured over HTTP.
        Metric("service.first_admission_ms", "ms", "lower"),
        Metric("service.first_record_ms.p50", "ms", "lower"),
        Metric("service.first_record_ms.p90", "ms", "lower"),
        Metric("service.subscribed_ack_ms.p50", "ms", "lower"),
        Metric("service.block_gap_ms.p50", "ms", "lower"),
        Metric("service.records_per_s", "1/s", "higher"),
        Metric("service.dropped_frac", "ratio", "lower"),
    )
    + tuple(
        Metric(f"kernels.fused_frac.{scheme}", "ratio", "higher")
        for scheme in SCHEMES
    )
    + tuple(Metric(f"core.{scheme}.wall_s", "s", "lower") for scheme in SCHEMES)
    + tuple(
        Metric(f"core.{scheme}.rms_error", "ratio", "lower")
        for scheme in SCHEMES
    )
    + tuple(
        Metric(f"core.{scheme}.words_per_epoch", "words", "lower")
        for scheme in SCHEMES
    )
)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation: a value that was seen)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(mid) if mid else 0.0


def fill(table: Sequence[Metric], values: Dict[str, float]) -> Dict[str, dict]:
    """The reported metric block: every name of ``table``, with its unit."""
    unknown = sorted(set(values) - {metric.name for metric in table})
    if unknown:
        raise KeyError(f"metrics outside the benchmark's table: {unknown}")
    return {
        metric.name: {
            "value": float(values.get(metric.name, 0.0)),
            "unit": metric.unit,
        }
        for metric in table
    }


def names(table: Sequence[Metric]) -> List[str]:
    return [metric.name for metric in table]
