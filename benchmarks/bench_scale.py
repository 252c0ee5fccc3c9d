"""Scale benchmark: words-vs-N and peak-memory-vs-N at growing network sizes.

Runs a short TAG timeline at growing deployment sizes through the full
scale stack — ``synthetic-scale`` topology (constant density, so the area
grows with N instead of the neighbor lists), ``retention = "stream"`` so no
epoch timeline accumulates in RAM, and a ``jsonl`` result store so every
epoch still lands somewhere durable. Per size it records:

* ``words_per_epoch`` — the channel bill (the paper's y-axis), derived
  from the streamed :class:`~repro.network.simulator.RunningStats`;
* ``tracemalloc_peak_mb`` — peak python-visible allocations of the run
  (numpy buffers included), the apples-to-apples memory curve;
* ``ru_maxrss_kb`` — the kernel's whole-process resident high-water mark;
* ``elapsed_s`` — wall-clock of the whole run (topology build included).

The record lands in ``results/scale_curve.json`` (committed, uploaded as
a CI artifact by the ``scale-smoke`` job). Run standalone::

    PYTHONPATH=src python benchmarks/bench_scale.py [--sizes N [N ...]]
        [--epochs E] [--churn SPEC] [--full] [--out PATH] [--max-peak-mb MB]

``--full`` appends the 100k-node point (the ISSUE acceptance run; a few
minutes). ``--max-peak-mb`` turns the largest size's tracemalloc peak
into a hard gate — the CI smoke job uses it as the memory ceiling.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import time
import tracemalloc

RESULT_NAME = "scale_curve.json"

#: Default curve points: small enough for a laptop, large enough that a
#: retained-timeline run would visibly bend the memory curve.
DEFAULT_SIZES = (1000, 5000, 20000)

#: The ISSUE acceptance point, appended by ``--full``.
FULL_SIZE = 100_000


def measure_point(
    num_sensors: int, epochs: int, store_dir: str, churn: str, seed: int = 0
) -> dict:
    """One curve point: a streamed, spilled TAG run at one size."""
    from repro.api import (
        RunConfig,
        RunReport,
        config_digest,
        run_config_result,
    )
    from repro.storage import count_epochs

    config = RunConfig(
        scheme="TAG",
        aggregate="sum",
        failure="none",
        topology="synthetic-scale",
        num_sensors=num_sensors,
        epochs=epochs,
        converge_epochs=0,
        reading="uniform:10:100:0",
        seed=seed,
        churn=churn,
        retention="stream",
        storage=f"jsonl:{store_dir}",
    )
    tracemalloc.start()
    started = time.perf_counter()
    result = run_config_result(config)
    elapsed_s = time.perf_counter() - started
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    report = RunReport(config=config, result=result)
    stored = count_epochs(config.storage, config_digest(config))
    return {
        "num_sensors": num_sensors,
        "epochs": epochs,
        "retained_epochs": len(result.epochs),
        "stored_epochs": stored,
        "words_per_epoch": report.words_per_epoch(),
        "rms_error": report.rms_error(),
        "tracemalloc_peak_bytes": peak,
        "tracemalloc_peak_mb": round(peak / 1e6, 3),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "elapsed_s": round(elapsed_s, 3),
    }


def run_curve(sizes, epochs: int, store_dir: str, churn: str = "none") -> dict:
    points = []
    for num_sensors in sizes:
        point = measure_point(num_sensors, epochs, store_dir, churn)
        points.append(point)
        print(
            f"  N={num_sensors:>7d}: words/epoch={point['words_per_epoch']:.0f} "
            f"peak={point['tracemalloc_peak_mb']:.1f}MB "
            f"rss={point['ru_maxrss_kb']}kB "
            f"elapsed={point['elapsed_s']}s",
            flush=True,
        )
    return {
        "benchmark": "scale",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scheme": "TAG",
        "topology": "synthetic-scale",
        "churn": churn,
        "retention": "stream",
        "store": "jsonl",
        "epochs": epochs,
        "points": points,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help=f"deployment sizes to measure (default {list(DEFAULT_SIZES)})",
    )
    parser.add_argument(
        "--epochs", type=int, default=50, help="epochs per point (default 50)"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help=f"append the {FULL_SIZE}-node acceptance point",
    )
    parser.add_argument(
        "--churn",
        default="none",
        metavar="SPEC",
        help="churn model spec for every point, in absolute epochs (runs "
        "start at 1000), e.g. deaths:1010:1500:1; default none",
    )
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument(
        "--store-dir",
        type=pathlib.Path,
        default=None,
        help="jsonl spill directory (default: a temp dir, discarded)",
    )
    parser.add_argument(
        "--max-peak-mb",
        type=float,
        default=None,
        help=(
            "exit non-zero if any point's tracemalloc peak exceeds this "
            "many MB (the CI scale-smoke memory ceiling)"
        ),
    )
    args = parser.parse_args()
    sizes = list(args.sizes)
    if args.full and FULL_SIZE not in sizes:
        sizes.append(FULL_SIZE)
    if args.store_dir is not None:
        store_dir = str(args.store_dir)
        record = run_curve(sizes, args.epochs, store_dir, args.churn)
    else:
        import tempfile

        with tempfile.TemporaryDirectory() as store_dir:
            record = run_curve(sizes, args.epochs, store_dir, args.churn)
    text = json.dumps(record, indent=2)
    out = args.out or (pathlib.Path(__file__).parent / "results" / RESULT_NAME)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    print(f"wrote {out}")
    if args.max_peak_mb is not None:
        worst = max(point["tracemalloc_peak_mb"] for point in record["points"])
        if worst > args.max_peak_mb:
            print(
                f"FAIL: peak traced memory {worst:.1f}MB exceeds the "
                f"{args.max_peak_mb:.0f}MB ceiling"
            )
            return 1
        print(
            f"peak traced memory {worst:.1f}MB within the "
            f"{args.max_peak_mb:.0f}MB ceiling"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
