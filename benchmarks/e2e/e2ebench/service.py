"""The ``serve_stream`` workload: a real ``repro serve`` driven over HTTP.

The load generator is this process: two closed-loop client threads, one
connection each (``min(nproc, 4)`` would allow more on a bigger host; with
two cores more clients would time the scheduler and the GIL, not the
service).

* The **reader** is the first subscription on the fresh server — it pays
  scheme build + convergence — and streams ``SELECT avg`` plus a windowed,
  predicated mean for a fixed number of epochs: steady streaming.
* The **churner** alternately subscribes ``{count, max}`` and ``{sum}`` for
  one block, reads to ``closed``, closes cleanly and resubmits until the
  reader is done: admission, planner slot sharing (``avg`` = shared
  ``sum``/``count``) and a portfolio rebuild at nearly every boundary.

Every stream is read to EOF on a ``Connection: close`` request, so the
server never sees a reset socket; what it still writes to stderr is
captured and counted, and the server is always reaped.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from . import metrics as M
from .batch import ROOT, SETUP_SAMPLES, child_env

SIZES = {
    "num_sensors": 100,
    "converge_epochs": 20,
    "churn_epochs": 10,
    # Reader epochs per budgeted second: the reader gets ~53 records/s beside
    # the churner on the reference host, so a run lasts about --seconds.
    "reader_epochs_per_s": 45,
    "golden_epochs": 200,
}
SMOKE_SIZES = dict(SIZES, num_sensors=60, converge_epochs=5, reader_epochs=30)

READER_QUERIES = [
    {"name": "mean", "query": "SELECT avg"},
    {"name": "hot-mean", "query": "SELECT avg WHERE value > 50 WINDOW 5 MEAN"},
]
CHURN_QUERIES = [
    [{"name": "population", "aggregate": "count"},
     {"name": "peak", "aggregate": "max"}],
    [{"name": "total", "aggregate": "sum"}],
]

HEALTH_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0
STREAM_TIMEOUT_S = 120.0


def sizes_of(smoke: bool, seconds: float) -> Dict[str, int]:
    sizes = dict(SMOKE_SIZES if smoke else SIZES)
    if "reader_epochs" not in sizes:
        block = sizes["churn_epochs"]
        epochs = int(seconds * sizes["reader_epochs_per_s"])
        sizes["reader_epochs"] = max(3 * block, epochs // block * block)
    return sizes


def scenario_overrides(seed: int, sizes: Dict[str, int]) -> Dict[str, object]:
    return {
        "num_sensors": sizes["num_sensors"],
        "converge_epochs": sizes["converge_epochs"],
        "reading": f"uniform:10:100:{seed}",
    }


# -- one subscription ------------------------------------------------------


def subscribe(address, queries, epochs: int, on_ack=None) -> dict:
    """POST one subscription, read its NDJSON stream to EOF, close.

    Returns the timings (seconds from just before the POST), the records
    and whether the stream was complete and in order. ``on_ack`` is called
    when the ``subscribed`` line arrives.
    """
    body = json.dumps(
        {"type": "query-submit", "version": 1, "queries": queries,
         "epochs": epochs}
    )
    outcome: Dict[str, object] = {"ok": False, "records": [], "arrivals": []}
    connection = http.client.HTTPConnection(*address, timeout=STREAM_TIMEOUT_S)
    started = time.perf_counter()
    try:
        connection.request(
            "POST", "/queries", body=body, headers={"Connection": "close"}
        )
        response = connection.getresponse()
        outcome["status"] = response.status
        for line in response:
            now = time.perf_counter() - started
            message = json.loads(line)
            kind = message.get("type")
            if kind == "subscribed":
                outcome["ack_s"] = now
                if on_ack is not None:
                    on_ack()
            elif kind == "epoch-record":
                outcome["records"].append(message)
                outcome["arrivals"].append(now)
                outcome["record_bytes"] = outcome.get("record_bytes", 0) + len(line)
            elif kind == "closed":
                outcome["closed_s"] = now
                outcome["reason"] = message.get("reason")
    except (OSError, ValueError, http.client.HTTPException) as error:
        outcome["error"] = repr(error)
    finally:
        connection.close()
    seen = [record["epoch"] for record in outcome["records"]]
    outcome["ok"] = bool(
        seen
        and outcome.get("status") == 200
        and outcome.get("reason") == "complete"
        and len(seen) == epochs
        and seen == list(range(seen[0], seen[0] + epochs))
    )
    return outcome


def get_json(address, method: str, path: str) -> dict:
    connection = http.client.HTTPConnection(*address, timeout=SHUTDOWN_TIMEOUT_S)
    try:
        connection.request(method, path, headers={"Connection": "close"})
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def run_load(address, sizes: Dict[str, int]) -> dict:
    """Reader + churner against a live server; returns what each saw."""
    churned: List[dict] = []
    reader: Dict[str, dict] = {}
    reader_done = threading.Event()
    reader_admitted = threading.Event()

    def read() -> None:
        try:
            reader["outcome"] = subscribe(
                address, READER_QUERIES, sizes["reader_epochs"],
                on_ack=reader_admitted.set,
            )
        finally:
            reader_done.set()
            reader_admitted.set()

    def churn() -> None:
        turn = 0
        while not reader_done.is_set():
            churned.append(
                subscribe(
                    address, CHURN_QUERIES[turn % 2], sizes["churn_epochs"]
                )
            )
            turn += 1

    reader_thread = threading.Thread(target=read, name="bench-reader")
    reader_thread.start()
    # The reader must be the server's first subscription (it pays scheme
    # build + convergence): the churner starts once the reader is admitted.
    reader_admitted.wait()
    churn_thread = threading.Thread(target=churn, name="bench-churner")
    churn_thread.start()
    reader_thread.join()
    churn_thread.join()
    return {"reader": reader["outcome"], "churned": churned}


# -- the server process ----------------------------------------------------


class ServerProcess:
    """``python -m repro.cli serve`` with captured output, always reaped."""

    def __init__(self, seed: int, sizes: Dict[str, int], work_dir: pathlib.Path):
        self._overrides = scenario_overrides(seed, sizes)
        self._work_dir = work_dir
        self._process: Optional[subprocess.Popen] = None
        self.address = None
        self.setup_s = 0.0
        self.exit_code: Optional[int] = None
        self.peak_rss_mb = 0.0
        self.stdout = ""
        self.stderr = ""

    def __enter__(self) -> "ServerProcess":
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        for key, value in self._overrides.items():
            command += ["--set", f"{key}={value}"]
        self._out = open(self._work_dir / "server.stdout", "w+")
        self._err = open(self._work_dir / "server.stderr", "w+")
        started = time.perf_counter()
        self._process = subprocess.Popen(
            command, stdout=self._out, stderr=self._err, env=child_env(),
            cwd=str(ROOT),
        )
        try:
            self._await_health(started)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _await_health(self, started: float) -> None:
        deadline = started + HEALTH_TIMEOUT_S
        banner = self._work_dir / "server.stdout"
        while time.perf_counter() < deadline:
            if self._process.poll() is not None:
                break
            match = re.search(r"http://([\w.]+):(\d+)", banner.read_text())
            if match:
                self.address = (match.group(1), int(match.group(2)))
                try:
                    if get_json(self.address, "GET", "/health")["status"] == "ok":
                        self.setup_s = time.perf_counter() - started
                        return
                except (OSError, ValueError, http.client.HTTPException):
                    pass
            time.sleep(0.002)
        raise RuntimeError("repro serve did not become healthy")

    def __exit__(self, *_exc) -> None:
        process = self._process
        if process.poll() is None and self.address is not None:
            try:
                get_json(self.address, "POST", "/shutdown")
            except (OSError, ValueError, http.client.HTTPException):
                pass
        # wait4 instead of Popen.wait: it hands back the child's ru_maxrss.
        deadline = time.perf_counter() + SHUTDOWN_TIMEOUT_S
        status = None
        while status is None:
            pid, code, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                status = os.waitstatus_to_exitcode(code)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
            elif time.perf_counter() > deadline:
                process.kill()
                deadline = float("inf")
            else:
                time.sleep(0.005)
        process.returncode = self.exit_code = status
        for handle, name in ((self._out, "stdout"), (self._err, "stderr")):
            handle.seek(0)
            setattr(self, name, handle.read())
            handle.close()


def probe_setup(seed: int, sizes, work_dir: pathlib.Path) -> ServerProcess:
    """Spawn → healthy → shutdown: one more ``setup_s`` sample."""
    with ServerProcess(seed, sizes, work_dir) as server:
        pass
    return server


# -- turning observations into the record ----------------------------------


def reader_digest(records: List[dict], epochs: int) -> Optional[str]:
    """SHA-256 over the reader's first ``epochs`` ``(epoch, results)``.

    A fixed prefix, so the digest does not depend on ``--seconds``; None
    when the run was too short to have one. ``words`` is excluded: it bills
    the whole live portfolio, so it depends on which churner queries
    happened to be attached that block.
    """
    if len(records) < epochs:
        return None
    digest = hashlib.sha256()
    for record in records[:epochs]:
        digest.update(
            json.dumps([record["epoch"], record["results"]], sort_keys=True).encode()
        )
    return digest.hexdigest()


def observe(load: dict, stats: dict, sizes) -> dict:
    """Timings and counts of one load run (no judgement yet)."""
    reader, churned = load["reader"], load["churned"]
    block = sizes["churn_epochs"]
    starts = reader["arrivals"][::block]  # a block's records arrive together
    steady = starts[-1] - starts[0] if len(starts) > 1 else 0.0
    first_record = [c["arrivals"][0] for c in churned if c["arrivals"]]
    expected = sizes["reader_epochs"] + block * len(churned)
    engine = stats["engine"]
    record_bytes = sum(c.get("record_bytes", 0) for c in [reader] + churned)
    records = len(reader["records"]) + sum(len(c["records"]) for c in churned)
    return {
        "subscriptions": 1 + len(churned),
        "failed": sum(1 for c in [reader] + churned if not c["ok"]),
        "errors": [c["error"] for c in [reader] + churned if "error" in c],
        "cycle_s": [c["closed_s"] for c in churned if "closed_s" in c],
        "first_record_s": first_record,
        "ack_s": [c["ack_s"] for c in churned if "ack_s" in c],
        "block_gap_s": [b - a for a, b in zip(starts, starts[1:])],
        "records_per_s": (
            block * (len(starts) - 1) / steady if steady > 0 else 0.0
        ),
        "first_admission_s": reader["arrivals"][0] if reader["arrivals"] else 0.0,
        "reader_wall_s": reader.get("closed_s", 0.0),
        "words_per_epoch": (
            engine["total_words"] / engine["epochs_run"]
            if engine["epochs_run"] else 0.0
        ),
        "dropped_frac": engine["records_dropped"] / expected if expected else 0.0,
        "bytes_per_record": record_bytes / records if records else 0.0,
        "reader_rms": _reader_rms(reader["records"]),
    }


def _reader_rms(records: List[dict]) -> float:
    """RMS relative error of the reader's ``mean`` answers."""
    errors = [
        (r["results"]["mean"]["estimate"] - r["results"]["mean"]["truth"])
        / r["results"]["mean"]["truth"]
        for r in records
        if r["results"]["mean"]["truth"]
    ]
    return (sum(e * e for e in errors) / len(errors)) ** 0.5 if errors else 0.0


def _checks(seen: dict, server_ok: bool, digest, golden) -> List[dict]:
    checks = [
        {"check": "subscriptions complete and consecutive",
         "ok": seen["failed"] == 0, "detail": "; ".join(seen["errors"])},
        {"check": "no record dropped", "ok": seen["dropped_frac"] == 0.0,
         "detail": ""},
        {"check": "server exited 0", "ok": server_ok, "detail": ""},
    ]
    if golden is not None and digest is not None:
        checks.append(
            {"check": "golden digest", "ok": digest == golden,
             "detail": f"{digest} != {golden}"}
        )
    return checks


def run_service(
    seed: int, seconds: float, trace: bool, smoke: bool,
    work_dir: pathlib.Path, golden: Optional[str],
) -> dict:
    """Measure ``serve_stream``; returns its section of the record."""
    share = seconds / 2 if trace else seconds
    sizes = sizes_of(smoke, share)
    with ServerProcess(seed, sizes, work_dir) as server:
        load = run_load(server.address, sizes)
        stats = get_json(server.address, "GET", "/stats")
    setups = [server.setup_s]
    for _ in range((1 if smoke else SETUP_SAMPLES) - 1):
        setups.append(probe_setup(seed, sizes, work_dir).setup_s)

    seen = observe(load, stats, sizes)
    digest = reader_digest(load["reader"]["records"], sizes["golden_epochs"])
    checks = _checks(seen, server.exit_code == 0, digest, golden)
    tracebacks = server.stderr.count("Traceback (most recent call last)")
    section = {
        "attempted": seen["subscriptions"],
        "failed": seen["failed"],
        "checks": checks,
        "digest": digest,
        "sizes": dict(
            sizes, churn_subscriptions=len(load["churned"]),
            setup_samples=len(setups),
        ),
        "stats": {
            "words_per_epoch": seen["words_per_epoch"],
            "rms_error": seen["reader_rms"],
            "dropped_frac": seen["dropped_frac"],
        },
        "samples": {
            "setup_s": setups,
            "wall_s": seen["cycle_s"],
            "peak_rss_mb": [server.peak_rss_mb],
        },
        "sample_counts": {
            "setup_s": len(setups),
            "wall_s": len(seen["cycle_s"]),
            "epochs_per_s": len(seen["block_gap_s"]),
            "peak_rss_mb": 1,
            "words_per_epoch": stats["engine"]["epochs_run"],
        },
        "server": {
            "exit_code": server.exit_code,
            "stdout": server.stdout[-4000:],
            "stderr": server.stderr[-4000:],
            "tracebacks": tracebacks,
            "stats": stats,
        },
    }
    if not trace:
        section["correct"] = all(c["ok"] for c in checks)
        section["metrics"] = M.fill(
            M.END_TO_END,
            {
                "setup_s": M.median(setups),
                "wall_s": M.median(seen["cycle_s"]),
                "epochs_per_s": seen["records_per_s"],
                "peak_rss_mb": server.peak_rss_mb,
                "words_per_epoch": seen["words_per_epoch"],
            },
        )
        return section

    traced = _traced_pass(seed, sizes)
    checks += traced["checks"]
    checks.append(
        {"check": "in-process stream identical to the subprocess's",
         "ok": traced["digest"] == digest, "detail": ""}
    )
    layers = traced["layers"]
    layers.update(
        {
            "trace.overhead_frac": (
                traced["reader_wall_s"] / seen["reader_wall_s"] - 1.0
                if seen["reader_wall_s"] else 0.0
            ),
            "core.rms_error": seen["reader_rms"],
            "service.first_admission_ms": 1e3 * seen["first_admission_s"],
            "service.first_record_ms.p50": 1e3 * M.percentile(seen["first_record_s"], 0.5),
            "service.first_record_ms.p90": 1e3 * M.percentile(seen["first_record_s"], 0.9),
            "service.subscribed_ack_ms.p50": 1e3 * M.percentile(seen["ack_s"], 0.5),
            "service.block_gap_ms.p50": 1e3 * M.percentile(seen["block_gap_s"], 0.5),
            "service.records_per_s": seen["records_per_s"],
            "service.dropped_frac": seen["dropped_frac"],
            "service.bytes_per_record": seen["bytes_per_record"],
            "service.epochs_run": stats["engine"]["epochs_run"],
            "service.blocks_run": stats["engine"]["blocks_run"],
            "service.admitted": stats["admission"]["admitted"],
            "service.rejected": stats["admission"]["rejected"],
            "service.shared_acquires": stats["planner"]["shared_acquires"],
            "service.records_dropped": stats["engine"]["records_dropped"],
            "service.server_tracebacks": tracebacks,
        }
    )
    section["correct"] = all(c["ok"] for c in checks)
    section["sizes"]["traced_churn_subscriptions"] = traced["churn_subscriptions"]
    section["metrics"] = M.fill(M.PER_LAYER, layers)
    return section


def _traced_pass(seed: int, sizes) -> dict:
    """The same load against an in-process server with the seams wrapped.

    A subprocess cannot be wrapped from outside, so the traced pass hosts
    ``AggregationServer`` in this process; the client threads then share
    the GIL with it, which ``trace.overhead_frac`` includes.
    """
    from repro.api import RunConfig
    from repro.service import AggregationServer

    from . import tracer as T

    # What `repro serve` builds from its defaults plus the same --set list.
    config = RunConfig(
        scheme="TD", failure="global:0.2", epochs=0,
        **scenario_overrides(seed, sizes),
    )
    tracer = T.Tracer()
    T.install_seams(tracer, config)
    try:
        server = AggregationServer(config, port=0)
        address = server.start()
        try:
            started = time.perf_counter()
            load = run_load(address, sizes)
            wall = time.perf_counter() - started
            stats = server.stats()
        finally:
            server.close()
    finally:
        restored = tracer.restore()
    seen = observe(load, stats, sizes)
    return {
        "layers": T.layer_metrics(tracer.spans, wall),
        "reader_wall_s": seen["reader_wall_s"],
        "churn_subscriptions": len(load["churned"]),
        "digest": reader_digest(
            load["reader"]["records"], sizes["golden_epochs"]
        ),
        "checks": [
            {"check": "traced subscriptions complete",
             "ok": seen["failed"] == 0, "detail": "; ".join(seen["errors"])},
            {"check": "wrapped attributes restored", "ok": restored,
             "detail": ""},
            {"check": "span stacks empty", "ok": tracer.open_spans() == 0,
             "detail": ""},
        ],
    }
