"""Engine side benchmarks: pooled sweeps, workload amortization, profiling.

Engine *speed* is measured end to end by ``benchmarks/e2e`` (the
``fig6_fused`` workload times the Fig-6 timeline through ``Session.run``
with a per-layer trace); what stays here is what that harness does not do:

* default — **sweep wall-clock**: a multi-scheme multi-seed grid through
  :meth:`repro.api.Session.run_many`, serial versus pooled;
* ``--workload`` — the 4-query workload amortization gate (one shared pass
  vs 4 separate runs, every query byte-identical to its standalone run);
* ``--profile`` — each scheme's Fig-6 run (the ``fig6`` named config,
  built through ``build_scenario``) under cProfile, top-20
  cumulative hotspots per scheme to ``results/engine_profile.json`` (see
  ARCHITECTURE.md "Profiling the engine").

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--out PATH]
        [--workload | --profile] [--mem]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

from repro.api import (
    EXPERIMENT_CONFIGS,
    RunConfig,
    Session,
    build_scenario,
    run_config_result,
)
from repro.registry import SCHEMES

#: The paper's Figure 2 loss rate (the sweep grid's failure model).
FIG2_LOSS = 0.3

#: The paper's Figure 6 deployment size (the profiled scenario).
FIG6_SENSORS = 600


def measure_sweep_wall_clock(
    num_sensors: int = 120,
    epochs: int = 25,
    converge_epochs: int = 40,
    jobs: int = 4,
) -> dict:
    """Serial vs pooled wall-clock for a (scheme x seed) sweep grid.

    Pool gains only exist on multi-core hosts: on a single-CPU machine the
    pooled run measures process-pool overhead, not parallelism, and the
    ~1x "speedup" it records would read as an engine defect. The record
    always carries ``cpu_count``; when it is below 2 the pooled comparison
    is skipped and ``pooled_skipped`` says why.
    """
    configs = [
        RunConfig(
            scheme=scheme,
            seed=seed,
            failure=f"global:{FIG2_LOSS}",
            num_sensors=num_sensors,
            epochs=epochs,
            converge_epochs=converge_epochs,
        )
        for scheme in ("TAG", "SD", "TD-Coarse", "TD")
        for seed in (1, 2)
    ]
    cpu_count = os.cpu_count() or 1
    started = time.perf_counter()
    serial = Session(jobs=1).run_many(configs)
    serial_s = time.perf_counter() - started
    record = {
        "runs": len(configs),
        "jobs": jobs,
        "cpu_count": cpu_count,
        "num_sensors": num_sensors,
        "epochs": epochs,
        "serial_s": serial_s,
    }
    if cpu_count < 2:
        record["pooled_skipped"] = (
            f"cpu_count {cpu_count} < 2: a pooled run would measure "
            "process-pool overhead, not parallelism"
        )
        return record
    started = time.perf_counter()
    pooled = Session(jobs=jobs).run_many(configs)
    pooled_s = time.perf_counter() - started
    identical = all(
        left.estimates == right.estimates for left, right in zip(serial, pooled)
    )
    record["pooled_s"] = pooled_s
    record["speedup"] = serial_s / max(pooled_s, 1e-12)
    record["results_identical"] = identical
    return record


PROFILE_RESULT_NAME = "engine_profile.json"


def measure_profile(num_sensors: int = FIG6_SENSORS, top: int = 20) -> dict:
    """cProfile each scheme's Fig-6 timeline; top cumulative hotspots.

    One profiled run per scheme of the ``fig6`` named config at
    ``num_sensors`` — the scenario, scheme and simulator come from
    ``build_scenario``, exactly what ``Session.run`` executes.
    Per scheme the record lists the ``top`` functions by *cumulative* time —
    cumulative, not tottime, so a cheap function fanning out into an
    expensive subtree still surfaces — and the ``engine_path`` its last
    block took (``"fused"`` or ``"object: <reason>"``). See ARCHITECTURE.md
    "Profiling the engine" for how to read the result.
    """
    import cProfile
    import pstats

    base = EXPERIMENT_CONFIGS["fig6"].replace(num_sensors=num_sensors)
    repo_root = str(pathlib.Path(__file__).resolve().parent.parent)
    record: dict = {
        "num_sensors": num_sensors,
        "epochs": base.epochs,
        "adapt_interval": base.adapt_interval,
        "top": top,
        "schemes": {},
    }
    for name in SCHEMES.available():
        scenario = build_scenario(base.replace(scheme=name))
        scheme, readings = scenario.bind()
        simulator = scenario.build_simulator(scheme)
        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        simulator.run(base.epochs, readings, start_epoch=base.start_epoch)
        profiler.disable()
        elapsed = time.perf_counter() - started
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        hotspots = []
        for func in stats.fcn_list[: top]:  # type: ignore[attr-defined]
            filename, line, func_name = func
            _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]  # type: ignore[attr-defined]
            if filename.startswith(repo_root):
                filename = filename[len(repo_root) + 1 :]
            hotspots.append(
                {
                    "function": f"{filename}:{line}({func_name})",
                    "ncalls": ncalls,
                    "tottime_s": round(tottime, 6),
                    "cumtime_s": round(cumtime, 6),
                }
            )
        record["schemes"][name] = {
            "elapsed_s": elapsed,
            "engine_path": scheme.engine_path,
            "hotspots": hotspots,
        }
    return record


#: The acceptance portfolio of ISSUE 5: scalar pair, predicated windowed
#: average, and a Section 6 heavy-hitters summary.
WORKLOAD_QUERIES = (
    {"name": "count", "aggregate": "count"},
    {"name": "sum", "aggregate": "sum"},
    {"name": "hot", "query": "SELECT avg WHERE value > 50"},
    {"name": "heavy", "aggregate": "heavy_hitters:0.05"},
)

WORKLOAD_RESULT_NAME = "workload_amortization.json"


def measure_workload_amortization(
    num_sensors: int = 200,
    epochs: int = 40,
    converge_epochs: int = 0,
    scheme: str = "TAG",
    seed: int = 1,
) -> dict:
    """N-query workload vs N separate runs: wall-clock and byte-identity.

    One simulator pass serves the whole portfolio (shared delivery draws,
    piggybacked payloads), so the workload's wall-clock should land well
    under the sum of the standalone runs — the acceptance target is
    < 2.5x a single run for the 4-query portfolio. Each query's estimates
    are asserted byte-identical to its standalone run under the same seed
    (exact for the non-adaptive schemes; see ARCHITECTURE.md "Multi-query
    execution" for the TD count caveat).
    """
    base = dict(
        scheme=scheme,
        failure="global:0.2",
        reading="uniform:10:100:0",
        num_sensors=num_sensors,
        epochs=epochs,
        converge_epochs=converge_epochs,
        seed=seed,
    )
    singles: dict = {}
    single_estimates: dict = {}
    for spec in WORKLOAD_QUERIES:
        config = RunConfig(
            aggregate=spec.get("aggregate", "count"),
            query=spec.get("query"),
            **base,
        )
        started = time.perf_counter()
        result = run_config_result(config)
        singles[spec["name"]] = time.perf_counter() - started
        single_estimates[spec["name"]] = result.estimates
    workload_config = RunConfig(queries=list(WORKLOAD_QUERIES), **base)
    started = time.perf_counter()
    workload_result = run_config_result(workload_config)
    workload_s = time.perf_counter() - started
    identical = all(
        [
            epoch.extra["workload_estimates"][index]
            for epoch in workload_result.epochs
        ]
        == single_estimates[spec["name"]]
        for index, spec in enumerate(WORKLOAD_QUERIES)
    )
    total_single_s = sum(singles.values())
    mean_single_s = total_single_s / len(singles)
    return {
        "scheme": scheme,
        "num_sensors": num_sensors,
        "epochs": epochs,
        "queries": [spec["name"] for spec in WORKLOAD_QUERIES],
        "single_s": singles,
        "total_single_s": total_single_s,
        "mean_single_s": mean_single_s,
        "workload_s": workload_s,
        "vs_sum_of_singles": workload_s / max(total_single_s, 1e-12),
        "vs_mean_single": workload_s / max(mean_single_s, 1e-12),
        "results_identical": identical,
    }


def start_memory_trace() -> None:
    """Begin allocation tracing for a ``--mem`` run (tracemalloc)."""
    import tracemalloc

    tracemalloc.start()


def memory_snapshot() -> dict:
    """Peak allocation footprint of the traced run, plus the OS high-water.

    ``tracemalloc`` counts python-visible allocations (numpy buffers
    included), so it is the apples-to-apples number across hosts;
    ``ru_maxrss`` is the kernel's resident high-water mark for the whole
    process (interpreter and imports included), in kilobytes on Linux.
    """
    import resource
    import tracemalloc

    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "tracemalloc_peak_bytes": peak,
        "tracemalloc_peak_mb": round(peak / 1e6, 3),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_benchmark(quick: bool = False) -> dict:
    """The sweep perf record.

    The sweep comparison only shows wall-clock gains on multi-core hosts;
    ``cpu_count`` is recorded and the pooled leg is skipped outright on a
    single-CPU host (see :func:`measure_sweep_wall_clock`), so a 1-core
    container never records a meaningless ~1x pooled "speedup".
    """
    return {
        "benchmark": "engine",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "sweep": measure_sweep_wall_clock(
            num_sensors=80 if quick else 120,
            epochs=10 if quick else 25,
            converge_epochs=15 if quick else 40,
        ),
    }


def test_engine_perf(record_result, quick):
    """Record the sweep JSON; pooled and serial runs must agree."""
    record = run_benchmark(quick=quick)
    record_result("engine_perf", json.dumps(record, indent=2))
    sweep = record["sweep"]
    if sweep["cpu_count"] < 2:
        assert "cpu_count" in sweep["pooled_skipped"]
    else:
        assert sweep["results_identical"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile each scheme's Fig-6 run under cProfile and "
            "record the top-20 cumulative hotspots to results/"
            + PROFILE_RESULT_NAME
        ),
    )
    parser.add_argument(
        "--mem",
        action="store_true",
        help=(
            "trace allocations (tracemalloc) and add a 'memory' block — "
            "peak traced bytes plus the OS ru_maxrss high-water — to the "
            "perf JSON record"
        ),
    )
    parser.add_argument(
        "--workload",
        action="store_true",
        help=(
            "measure the 4-query workload amortization instead (one shared "
            "pass vs 4 separate runs; writes results/"
            + WORKLOAD_RESULT_NAME
            + ", fails if the workload costs >= 2.5x a single run or any "
            "query's estimates diverge from its standalone run)"
        ),
    )
    args = parser.parse_args()
    if args.mem:
        start_memory_trace()
    if args.profile:
        record = {
            "benchmark": "engine_profile",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
            "profile": measure_profile(
                num_sensors=150 if args.quick else FIG6_SENSORS
            ),
        }
        if args.mem:
            record["memory"] = memory_snapshot()
        text = json.dumps(record, indent=2)
        print(text)
        out = args.out or (
            pathlib.Path(__file__).parent / "results" / PROFILE_RESULT_NAME
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        return 0
    if args.workload:
        record = {
            "benchmark": "workload",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
            "amortization": measure_workload_amortization(
                num_sensors=100 if args.quick else 200,
                epochs=20 if args.quick else 40,
            ),
        }
        if args.mem:
            record["memory"] = memory_snapshot()
        text = json.dumps(record, indent=2)
        print(text)
        out = args.out or (
            pathlib.Path(__file__).parent / "results" / WORKLOAD_RESULT_NAME
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        amortization = record["amortization"]
        if not amortization["results_identical"]:
            print("FAIL: a workload query diverged from its standalone run")
            return 1
        if amortization["vs_mean_single"] >= 2.5:
            print(
                "FAIL: 4-query workload costs "
                f"{amortization['vs_mean_single']:.2f}x a single run "
                "(acceptance gate is < 2.5x)"
            )
            return 1
        return 0
    record = run_benchmark(quick=args.quick)
    if args.mem:
        record["memory"] = memory_snapshot()
    text = json.dumps(record, indent=2)
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
