"""Command line of the end-to-end benchmark (see ``README.md``)."""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from . import metrics as M
from .batch import ROOT, child_main, run_batch
from .compare import compare
from .service import run_service

HERE = pathlib.Path(__file__).resolve().parents[1]
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py",
        description=(
            "End-to-end benchmark of the repro stack. Without --workload "
            "all four workloads run. 'run.py compare A.json B.json' "
            "compares two records."
        ),
    )
    parser.add_argument("--workload", choices=list(M.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measurement budget per workload (default 20)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics); 0: end-to-end metrics",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="complete runs to make, on seeds SEED, SEED+1, ...",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        help="record file; runs are appended when it already holds a record",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizing (60 nodes, 10 epochs, 30-epoch reader); no goldens",
    )
    parser.add_argument(
        "--pin", action="store_true",
        help="write this run's result digests into expected.json",
    )
    parser.add_argument(
        "--allow-backend-env", action="store_true",
        help=f"run although {BACKEND_ENV_VAR} is set",
    )
    parser.add_argument("--child", choices=("measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--store-dir", help=argparse.SUPPRESS)
    return parser


def environment(args) -> Dict[str, object]:
    import numpy

    import repro.kernels

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "kernel_backend": repro.kernels.get_backend().name,
        "backend_env": os.environ.get(BACKEND_ENV_VAR),
        "git_commit": commit,
        "platform": platform.platform(),
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def _golden(expected: dict, workload: str, seed: int, args) -> Optional[str]:
    if args.smoke or args.pin:
        return None
    return expected.get(workload, {}).get(str(seed))


def run_workload(workload: str, seed: int, args, expected: dict) -> dict:
    """One workload, one pass; returns its section of the record."""
    WORK.mkdir(exist_ok=True)
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    golden = _golden(expected, workload, seed, args)
    try:
        if workload == "serve_stream":
            return run_service(
                seed, args.seconds, bool(args.trace), args.smoke, work_dir,
                golden,
            )
        return run_batch(
            workload, seed, args.seconds, bool(args.trace), args.smoke,
            work_dir, golden,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def contract_line(section: dict) -> str:
    return json.dumps(
        {key: section[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def _print_section(workload: str, section: dict) -> None:
    print(f"== {workload}: {M.WORKLOADS[workload]}")
    print(f"   sizes: {json.dumps(section['sizes'])}")
    for name, entry in section["metrics"].items():
        print(f"   {name:34s} {entry['value']:16.6f} {entry['unit']}")
    for check in section["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        detail = "" if check["ok"] or not check["detail"] else f" ({check['detail']})"
        print(f"   [{mark}] {check['check']}{detail}")
    print(
        f"   correct={section['correct']} attempted={section['attempted']} "
        f"failed={section['failed']}",
        flush=True,
    )


def _write_record(path: pathlib.Path, env: dict, runs: List[dict]) -> None:
    record = {"schema": M.SCHEMA, "environment": env, "runs": []}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("schema") == M.SCHEMA:
            record["runs"] = previous["runs"]
    record["runs"] += runs
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def _pin(expected: dict, runs: List[dict]) -> None:
    for run in runs:
        for workload, section in run["workloads"].items():
            if section["correct"] and section["digest"]:
                expected.setdefault(workload, {})[str(run["seed"])] = section["digest"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = _parser().parse_args(argv)
    if args.child:
        return child_main(
            args.workload, args.seed, args.seconds, args.child, args.smoke,
            args.store_dir,
        )
    if os.environ.get(BACKEND_ENV_VAR) and not args.allow_backend_env:
        print(
            f"{BACKEND_ENV_VAR}={os.environ[BACKEND_ENV_VAR]} is set: two "
            "records could silently run different kernel backends. Unset "
            "it, or pass --allow-backend-env to record it.",
            file=sys.stderr,
        )
        return 2
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    env = environment(args)
    workloads = [args.workload] if args.workload else list(M.WORKLOADS)
    runs: List[dict] = []
    for seed in range(args.seed, args.seed + args.repeat):
        started = time.perf_counter()
        run = {"seed": seed, "trace": args.trace, "smoke": args.smoke,
               "workloads": {}}
        for workload in workloads:
            section = run_workload(workload, seed, args, expected)
            run["workloads"][workload] = section
            _print_section(workload, section)
        run["elapsed_s"] = time.perf_counter() - started
        runs.append(run)
        if args.out is not None:
            _write_record(args.out, env, [run])
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run of the benchmark is using it
    if args.pin:
        _pin(expected, runs)
    sections = [s for run in runs for s in run["workloads"].values()]
    if args.workload and args.repeat == 1:
        print(contract_line(sections[0]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(s["correct"] for s in sections),
                    "attempted": sum(s["attempted"] for s in sections),
                    "failed": sum(s["failed"] for s in sections),
                }
            )
        )
    return 0 if all(s["correct"] for s in sections) else 1
