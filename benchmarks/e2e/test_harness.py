"""Self-test of the end-to-end benchmark harness (tier-1, a few seconds).

Runs every workload once per pass at ``--smoke`` sizing (60 nodes, 10
epochs, a 30-epoch reader) and checks the harness itself: the metric
vocabulary is complete and well-formed, self times never exceed the wall,
and tracing leaves no wrapper and no open span behind in this process.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from e2ebench import cli, compare, metrics as M, tracer as T  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _seam_objects():
    """The objects tracing replaces, as they are right now."""
    import repro.api as api
    from repro.datasets.streams import UniformReadings
    from repro.network.links import Channel
    from repro.registry import TOPOLOGIES
    from repro.service.engine import AggregationService

    return [
        vars(api)["run_config_result"],
        vars(api)["build_scenario"],
        vars(UniformReadings)["__call__"],
        vars(UniformReadings)["batch"],
        vars(Channel)["plan_epochs"],
        vars(AggregationService)["run_block"],
        TOPOLOGIES.resolve("synthetic"),
    ]


@pytest.fixture(scope="module")
def smoke():
    """Both passes of all four workloads, run side by side."""
    before = _seam_objects()

    def one(job):
        workload, trace = job
        args = argparse.Namespace(seconds=0.3, trace=trace, smoke=True, pin=False)
        return job, cli.run_workload(workload, 0, args, {})

    jobs = [(w, trace) for trace in (1, 0) for w in M.WORKLOADS]
    with ThreadPoolExecutor(max_workers=3) as pool:
        sections = dict(pool.map(one, jobs))
    return {"sections": sections, "before": before, "after": _seam_objects()}


def test_every_workload_passes_its_checks(smoke):
    for job, section in smoke["sections"].items():
        failed = [c for c in section["checks"] if not c["ok"]]
        assert section["correct"] and not failed, (job, failed)
        assert section["attempted"] >= 1 and section["failed"] == 0, job


@pytest.mark.parametrize("trace,table", [(0, M.END_TO_END), (1, M.PER_LAYER)])
def test_every_metric_is_reported_with_its_unit(smoke, trace, table):
    for workload in M.WORKLOADS:
        reported = smoke["sections"][(workload, trace)]["metrics"]
        assert list(reported) == M.names(table), workload
        for metric in table:
            entry = reported[metric.name]
            assert entry["unit"] == metric.unit, (workload, metric.name)
            assert isinstance(entry["value"], float), (workload, metric.name)


def test_end_to_end_metrics_are_never_zero(smoke):
    for workload in M.WORKLOADS:
        for name, entry in smoke["sections"][(workload, 0)]["metrics"].items():
            assert entry["value"] > 0, (workload, name)


def test_names_and_units_are_well_formed():
    seen = [m.name for m in M.END_TO_END] + [m.name for m in M.PER_LAYER]
    assert len(seen) == len(set(seen))
    assert len(M.PER_LAYER) <= 128 and len(M.END_TO_END) <= 16
    for metric in tuple(M.END_TO_END) + tuple(M.PER_LAYER):
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for metric in M.END_TO_END:
        assert 0 < metric.bound <= 0.25, metric
    for name, why in M.WORKLOADS.items():
        assert NAME.match(name) and len(why) <= 200 and "\n" not in why


def test_benchmark_json_matches_the_table():
    path = HERE.parents[1] / "BENCHMARK.json"
    document = json.loads(path.read_text())
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert {w["name"]: w["why"] for w in document["workloads"]} == M.WORKLOADS
    assert [tuple(m.values()) for m in document["end_to_end"]] == [
        tuple(m) for m in M.END_TO_END
    ]
    assert [tuple(m.values()) for m in document["per_layer"]] == [
        tuple(m)[:3] for m in M.PER_LAYER
    ]


def test_self_times_stay_within_the_traced_wall(smoke):
    for workload in M.WORKLOADS:
        if workload == "serve_stream":
            continue  # engine and HTTP threads overlap: no single wall
        layers = smoke["sections"][(workload, 1)]["metrics"]
        wall = layers["trace.wall_s"]["value"]
        self_time = sum(
            entry["value"]
            for name, entry in layers.items()
            if name.endswith((".s", ".self_s"))
            and name not in ("untraced.s", "trace.wall_s")
            and not name.startswith("service.run_block")
        )
        assert 0 < self_time <= wall, workload
        assert self_time + layers["untraced.s"]["value"] == pytest.approx(wall)


def test_fused_kernels_run_where_they_should(smoke):
    fig6 = smoke["sections"][("fig6_fused", 1)]["metrics"]
    assert fig6["kernels.fused_frac.TAG"]["value"] == 1.0
    assert fig6["kernels.fused_frac.SD"]["value"] == 1.0
    multi = smoke["sections"][("multiquery_object", 1)]["metrics"]
    assert multi["kernels.fused_frac"]["value"] == 0.0
    assert multi["core.object_blocks"]["value"] >= 1
    serve = smoke["sections"][("serve_stream", 1)]["metrics"]
    assert serve["kernels.fused_frac"]["value"] == 0.0
    assert serve["service.run_block.s.p50"]["value"] > 0


def test_tracing_leaves_nothing_behind(smoke):
    # The traced service pass wrapped these very objects in this process.
    for before, after in zip(smoke["before"], smoke["after"]):
        assert after is before
        assert not hasattr(after, "__wrapped__")


def test_tracer_restores_and_drains():
    import repro.api as api

    original = vars(api)["build_scenario"]
    tracer = T.Tracer()
    T.install_seams(tracer, api.EXPERIMENT_CONFIGS["fig6"])
    try:
        assert vars(api)["build_scenario"] is not original
        api.build_scenario(
            api.EXPERIMENT_CONFIGS["fig6"].replace(num_sensors=60)
        )
    finally:
        assert tracer.restore()
    assert vars(api)["build_scenario"] is original
    assert tracer.open_spans() == 0
    layers = T.summarize(tracer.spans)
    assert layers["api.build_scenario"]["calls"] == 1
    nested = layers["tree.build_bushy_tree"]["total_s"]
    assert layers["api.build_scenario"]["self_s"] <= (
        layers["api.build_scenario"]["total_s"] - nested + 1e-9
    )


def test_compare_verdicts():
    wall = next(m for m in M.END_TO_END if m.name == "wall_s")
    rate = next(m for m in M.END_TO_END if m.name == "epochs_per_s")
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(wall, steady, steady)["verdict"] == "ok"
    assert compare.verdict(wall, steady, [1.3, 1.31, 1.29])["verdict"] == "regressed"
    assert compare.verdict(wall, steady, [0.7, 0.71, 0.69])["verdict"] == "improved"
    assert compare.verdict(rate, steady, [0.7, 0.71, 0.69])["verdict"] == "regressed"
    noisy = [1.0, 1.6, 0.7, 1.3]
    assert compare.verdict(wall, noisy, steady)["verdict"] == "unresolved"
    assert compare.verdict(wall, noisy, [0.5, 0.6, 0.55])["verdict"] == "improved"


def test_backend_env_is_refused(monkeypatch, capsys):
    monkeypatch.setenv(cli.BACKEND_ENV_VAR, "object")
    assert cli.main(["--workload", "fig6_fused", "--smoke"]) == 2
    assert cli.BACKEND_ENV_VAR in capsys.readouterr().err
