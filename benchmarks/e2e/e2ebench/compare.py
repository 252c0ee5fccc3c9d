"""``run.py compare A.json B.json``: is B no worse than A, metric by metric?

Each file is a record written by ``run.py --out`` (one or more complete
runs). One row per workload × end-to-end metric: both medians, the ratio
with its base, the metric's bound and a verdict —

* ``regressed``  B's median is worse than A's by more than the bound;
* ``improved``   better by more than the bound;
* ``ok``         within the bound;
* ``unresolved`` either file's own run-to-run spread (interquartile
  distance over median) is wider than the bound, so the medians cannot be
  told apart — unless every run of B beats every run of A (``improved``).

A further row per workload compares the result digests seed by seed: the
simulated statistics repeat bit-for-bit, so any difference is a behaviour
change (``changed``), not noise. Exit status is non-zero when any row
reads ``regressed`` or ``changed``.
"""

from __future__ import annotations

import json
from typing import Dict, List

from . import metrics as M


def load_runs(path: str) -> List[dict]:
    with open(path) as handle:
        record = json.load(handle)
    if record.get("schema") != M.SCHEMA:
        raise ValueError(f"{path}: not a {M.SCHEMA} record")
    return record["runs"]


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["metrics"][metric]["value"]
        for run in runs
        if workload in run["workloads"]
        and metric in run["workloads"][workload].get("metrics", {})
    ]


def verdict(metric: M.Metric, base: List[float], new: List[float]) -> dict:
    a, b = M.median(base), M.median(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (b - a) / abs(a) if a else 0.0
    spreads = (M.spread(base), M.spread(new))
    if max(spreads) > metric.bound:
        wins = (
            max(new) < min(base) if metric.better == "lower"
            else min(new) > max(base)
        )
        outcome = "improved" if wins else "unresolved"
    elif worse > metric.bound:
        outcome = "regressed"
    elif worse < -metric.bound:
        outcome = "improved"
    else:
        outcome = "ok"
    return {
        "a": a, "b": b, "ratio": b / a if a else 0.0, "worse": worse,
        "spread_a": spreads[0], "spread_b": spreads[1], "verdict": outcome,
    }


def _digests(runs: List[dict], workload: str) -> Dict[int, set]:
    by_seed: Dict[int, set] = {}
    for run in runs:
        section = run["workloads"].get(workload)
        if section is not None and section["digest"] and not run.get("smoke"):
            by_seed.setdefault(run["seed"], set()).add(section["digest"])
    return by_seed


def compare(path_a: str, path_b: str) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    print(f"A = {path_a} ({len(runs_a)} runs)   B = {path_b} ({len(runs_b)} runs)")
    print(
        f"{'workload':18s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'spread A/B':>13s} {'bound':>6s}  verdict"
    )
    bad = 0
    for workload in M.WORKLOADS:
        for metric in M.END_TO_END:
            base = _values(runs_a, workload, metric.name)
            new = _values(runs_b, workload, metric.name)
            if not base or not new:
                continue
            row = verdict(metric, base, new)
            bad += row["verdict"] == "regressed"
            print(
                f"{workload:18s} {metric.name:16s} {row['a']:12.4f} "
                f"{row['b']:12.4f} {row['ratio']:7.3f} "
                f"{row['spread_a']:6.1%}/{row['spread_b']:6.1%} "
                f"{metric.bound:6.0%}  {row['verdict']}"
            )
        seeds_a, seeds_b = _digests(runs_a, workload), _digests(runs_b, workload)
        shared = sorted(set(seeds_a) & set(seeds_b))
        if shared:
            same = sum(1 for seed in shared if seeds_a[seed] == seeds_b[seed])
            outcome = "ok" if same == len(shared) else "changed"
            bad += outcome == "changed"
            print(
                f"{workload:18s} {'result digest':16s} identical on "
                f"{same}/{len(shared)} shared seeds{'':21s}{outcome}"
            )
    return 1 if bad else 0
