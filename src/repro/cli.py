"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig2 [--full] [--seed N]
    python -m repro.cli run all --out results/
    python -m repro.cli sweep --schemes TAG,SD,TD --seeds 1,2,3 \
        --failures global:0.0,global:0.3 --jobs 4 --cache-dir .sweep-cache
    python -m repro.cli describe fig2 > fig2.json
    python -m repro.cli run-config fig2.json --epochs 10
    python -m repro.cli run-config fig2.json --audit strict \
        --set faults=corrupt:0.05,delay:3
    python -m repro.cli run-config fig2.json --checkpoint-dir ckpt/ --resume

``run`` regenerates a figure/table; each experiment prints (and optionally
writes) the same rows/series the paper reports, with ``--full`` switching
from the quick configurations to the paper-scale ones. ``sweep`` fans a
(scheme x failure x seed) grid through :meth:`~repro.api.Session.sweep`
(process pool, optional on-disk result cache). ``describe`` dumps the resolved
:class:`~repro.api.RunConfig` of a named figure experiment as JSON, and
``run-config`` executes any config file through the unified
:class:`~repro.api.Session` — so ``repro describe fig2 | repro run-config
/dev/stdin`` regenerates the figure's headline run from its declarative
form alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import sys
import time
from typing import Callable, Dict, Sequence, Tuple

from repro.api import (
    EXPERIMENT_CONFIGS,
    RunConfig,
    Session,
    check_legacy_group_by,
    check_legacy_use_blocked,
    describe_experiment,
    expand_grid,
)
from repro.errors import ConfigurationError

from repro.experiments.fig_count_rms import run_figure2, run_figure5a
from repro.experiments.fig_domination import run_figure7a, run_figure7b, run_table2
from repro.experiments.fig_fi_load import run_figure8
from repro.experiments.fig_fi_loss import run_figure9
from repro.experiments.fig_latency import run_latency
from repro.experiments.fig_lifetime import run_lifetime
from repro.experiments.fig_regional import run_figure5b
from repro.experiments.fig_churn import run_churn_timeline
from repro.experiments.fig_timeline import run_figure6
from repro.experiments.fig_topology import run_figure4_panels
from repro.experiments.labdata_rms import run_labdata_rms
from repro.experiments.sweeps import (
    sweep_adapt_interval,
    sweep_epsilon_split,
    sweep_expansion_heuristic,
    sweep_threshold,
)
from repro.experiments.table1 import run_table1

#: name -> (description, runner returning a renderable result)
EXPERIMENTS: Dict[str, Tuple[str, Callable]] = {
    "table1": (
        "measured energy/error/latency comparison (Table 1)",
        lambda quick, seed: run_table1(quick=quick, seed=seed),
    ),
    "fig2": (
        "Count RMS vs Global(p) loss (Figure 2)",
        lambda quick, seed: run_figure2(quick=quick, seed=seed),
    ),
    "table2": (
        "2-dominating tree example (Table 2)",
        lambda quick, seed: run_table2(),
    ),
    "fig4": (
        "TD delta region under Regional(0.3/0.8, 0.05) (Figure 4)",
        lambda quick, seed: run_figure4_panels(quick=quick, seed=seed),
    ),
    "fig5a": (
        "Sum RMS vs Global(p), all four schemes (Figure 5a)",
        lambda quick, seed: run_figure5a(quick=quick, seed=seed),
    ),
    "fig5b": (
        "Sum RMS vs Regional(p, 0.05) (Figure 5b)",
        lambda quick, seed: run_figure5b(quick=quick, seed=seed),
    ),
    "fig6": (
        "relative-error timeline across failure transitions (Figure 6)",
        lambda quick, seed: run_figure6(quick=quick, seed=seed),
    ),
    "labdata": (
        "Sum RMS on the LabData scenario (Section 7.3)",
        lambda quick, seed: run_labdata_rms(quick=quick, seed=seed),
    ),
    "churn-timeline": (
        "Figure-6-style timeline with node deaths and tree repair",
        lambda quick, seed: run_churn_timeline(quick=quick, seed=seed),
    ),
    "fig7a": (
        "domination factor vs density (Figure 7a)",
        lambda quick, seed: run_figure7a(quick=quick, seed=seed),
    ),
    "fig7b": (
        "domination factor vs deployment width (Figure 7b)",
        lambda quick, seed: run_figure7b(quick=quick, seed=seed),
    ),
    "fig8": (
        "frequent-items per-node loads (Figure 8)",
        lambda quick, seed: run_figure8(quick=quick, seed=seed),
    ),
    "fig9a": (
        "frequent-items false negatives vs loss (Figure 9a)",
        lambda quick, seed: run_figure9(retransmissions=0, quick=quick, seed=seed),
    ),
    "fig9b": (
        "Figure 9a with two tree retransmissions (Figure 9b)",
        lambda quick, seed: run_figure9(retransmissions=2, quick=quick, seed=seed),
    ),
    "latency": (
        "Table 1 latency column + footnote 6, quantified",
        lambda quick, seed: run_latency(quick=quick, seed=seed),
    ),
    "lifetime": (
        "battery lifetimes per scheme (the paper's energy premise)",
        lambda quick, seed: run_lifetime(quick=quick, seed=seed),
    ),
    "sweep-threshold": (
        "contributing-threshold sweep (Section 4.1 dial)",
        lambda quick, seed: sweep_threshold(quick=quick, seed=seed),
    ),
    "sweep-interval": (
        "adaptation-cadence sweep (Figure 6 convergence knob)",
        lambda quick, seed: sweep_adapt_interval(quick=quick, seed=seed),
    ),
    "sweep-heuristic": (
        "expansion heuristics: top-1 / max-2 / top-k (Section 4.2)",
        lambda quick, seed: sweep_expansion_heuristic(quick=quick, seed=seed),
    ),
    "sweep-split": (
        "frequent-items error split eps_a vs eps_b (Section 6.3)",
        lambda quick, seed: sweep_epsilon_split(quick=quick, seed=seed),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tributary-Delta experiment runner"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment name or 'all'")
    run_parser.add_argument(
        "--full", action="store_true", help="paper-scale configuration"
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="directory for .txt outputs"
    )
    sweep_parser = subparsers.add_parser(
        "sweep", help="run a (scheme x failure x seed) grid through the pool"
    )
    sweep_parser.add_argument(
        "--schemes",
        default="TAG,SD,TD-Coarse,TD",
        help="comma-separated scheme names",
    )
    sweep_parser.add_argument(
        "--seeds", default="1", help="comma-separated channel seeds"
    )
    sweep_parser.add_argument(
        "--failures",
        default="global:0.0,global:0.2",
        help="comma-separated failure specs (none, global:P, regional:P1:P2)",
    )
    sweep_parser.add_argument("--sensors", type=int, default=600)
    sweep_parser.add_argument("--epochs", type=int, default=100)
    sweep_parser.add_argument("--converge", type=int, default=120)
    sweep_parser.add_argument("--scenario-seed", type=int, default=0)
    sweep_parser.add_argument(
        "--aggregate", choices=("count", "sum"), default="count"
    )
    sweep_parser.add_argument(
        "--reading",
        default="constant:1.0",
        help="workload spec (constant:V or uniform:LO:HI:SEED)",
    )
    sweep_parser.add_argument("--threshold", type=float, default=0.9)
    sweep_parser.add_argument(
        "--churn",
        default="none",
        help=(
            "churn spec applied to every grid cell (none, deaths:E:K[:S], "
            "blackout:E[:X1:Y1:X2:Y2[:REJOIN]], lifetime:J, at:E:N1+N2); "
            "epochs are absolute and measurement starts at epoch 1000"
        ),
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help=(
            "worker processes, clamped to the CPU count; "
            "0 = one per grid cell up to the CPU count"
        ),
    )
    sweep_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="directory for cached results (re-runs load identical results)",
    )
    sweep_parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="file for the table"
    )
    describe_parser = subparsers.add_parser(
        "describe",
        help="dump the resolved RunConfig of a named experiment as JSON",
    )
    describe_parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment name (see 'describe --list')",
    )
    describe_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_names",
        help="print the describable experiment names, one per line",
    )
    config_parser = subparsers.add_parser(
        "run-config",
        help="execute a RunConfig JSON file through the Session API",
    )
    config_parser.add_argument(
        "config", help="path to a RunConfig JSON file ('-' for stdin)"
    )
    config_parser.add_argument(
        "--epochs", type=int, default=None, help="override measured epochs"
    )
    config_parser.add_argument(
        "--seed", type=int, default=None, help="override the channel seed"
    )
    config_parser.add_argument(
        "--scheme", default=None, help="override the scheme name"
    )
    config_parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override any config field (repeatable), e.g. "
        "--set num_sensors=60 --set converge_epochs=8",
    )
    config_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="directory for cached results",
    )
    config_parser.add_argument(
        "--store",
        default=None,
        metavar="SPEC",
        help=(
            "spill epoch results to a pluggable store "
            "(memory | jsonl:DIR | sqlite:PATH); shorthand for "
            "--set storage=SPEC"
        ),
    )
    config_parser.add_argument(
        "--retention",
        default=None,
        metavar="POLICY",
        help=(
            "in-RAM timeline retention: all (default), window:N, or "
            "stream; shorthand for --set retention=POLICY"
        ),
    )
    config_parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="file for the report"
    )
    config_parser.add_argument(
        "--audit",
        choices=("strict", "record"),
        default=None,
        help=(
            "attach the online invariant auditor: 'strict' aborts on the "
            "first violation (exit code 4), 'record' collects violations "
            "and prints a summary"
        ),
    )
    config_parser.add_argument(
        "--checkpoint-dir",
        type=pathlib.Path,
        default=None,
        help=(
            "directory for crash-safe checkpoints written at block "
            "boundaries; a killed run restarts from the latest one with "
            "--resume"
        ),
    )
    config_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint in --checkpoint-dir (if any)",
    )
    config_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=10,
        help="epoch offsets between checkpoints (default 10)",
    )
    config_parser.add_argument(
        "--kill-at",
        type=int,
        default=None,
        metavar="OFFSET",
        help=(
            "crash-drill switch: abort the run (exit code 3) at the first "
            "checkpoint at or past this epoch offset"
        ),
    )
    serve_parser = subparsers.add_parser(
        "serve",
        help="long-running aggregation service over one shared scenario",
    )
    serve_parser.add_argument(
        "--config",
        default=None,
        help=(
            "RunConfig JSON file describing the served scenario "
            "('-' for stdin); defaults to TD over 60 sensors with "
            "global:0.2 loss and uniform readings"
        ),
    )
    serve_parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override any scenario field (repeatable), e.g. "
        "--set num_sensors=40 --set failure=none",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve_parser.add_argument(
        "--budget-words",
        type=int,
        default=256,
        help="per-message word budget for admission control",
    )
    serve_parser.add_argument(
        "--block-epochs",
        type=int,
        default=None,
        help=(
            "epochs per execution block (admission/eviction granularity); "
            "must be a multiple of the scheme's adaptation interval — "
            "defaults to one interval"
        ),
    )
    serve_parser.add_argument(
        "--checkpoint-dir",
        type=pathlib.Path,
        default=None,
        help="directory for the final checkpoint written on shutdown",
    )
    serve_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reload the shutdown checkpoint from --checkpoint-dir (epoch "
            "cursor and energy ledger) and continue the stream from there"
        ),
    )
    serve_parser.add_argument(
        "--cache-entries",
        type=int,
        default=128,
        help="bound of the shared session's in-memory result LRU",
    )
    serve_parser.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep between blocks (0 = run epochs as fast as possible)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log HTTP requests to stderr"
    )
    return parser


def _run_one(name: str, quick: bool, seed: int, out: pathlib.Path | None) -> None:
    description, runner = EXPERIMENTS[name]
    started = time.time()
    result = runner(quick, seed)
    text = result.render()
    elapsed = time.time() - started
    print(f"== {name}: {description} [{elapsed:.1f}s]")
    print(text)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n")


def _run_sweep(args) -> int:
    schemes = [name.strip() for name in args.schemes.split(",") if name.strip()]
    try:
        seeds = [int(token) for token in args.seeds.split(",") if token.strip()]
    except ValueError:
        print(f"--seeds must be comma-separated integers, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    failures = [
        token.strip() for token in args.failures.split(",") if token.strip()
    ]
    cells = len(schemes) * len(seeds) * len(failures)
    # More workers than cores only adds scheduling overhead: clamp explicit
    # --jobs to the CPU count (parallel_map additionally degrades to serial
    # on single-CPU hosts, where a pool cannot win wall-clock).
    cpus = os.cpu_count() or 1
    jobs = min(args.jobs, cpus) if args.jobs > 0 else min(cells, cpus)
    started = time.time()
    try:
        # scheme, failure and seed are the grid axes: every cell replaces
        # the base's values (failures outermost, then schemes, then seeds —
        # the order the table lists).
        base = RunConfig(
            scheme="TAG",
            num_sensors=args.sensors,
            epochs=args.epochs,
            converge_epochs=args.converge,
            scenario_seed=args.scenario_seed,
            aggregate=args.aggregate,
            reading=args.reading,
            threshold=args.threshold,
            churn=args.churn,
        )
        report = Session(jobs=jobs, cache_dir=args.cache_dir).sweep(
            expand_grid(base, failure=failures, scheme=schemes, seed=seeds)
        )
    except ConfigurationError as error:
        print(f"invalid sweep configuration: {error}", file=sys.stderr)
        return 2
    text = report.render()
    elapsed = time.time() - started
    print(f"== sweep: {cells} runs, {jobs} workers [{elapsed:.1f}s]")
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    return 0


def _parse_bool(name: str, raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"{name} expects true/false, got {raw!r}")


def _parse_overrides(items: Sequence[str]) -> Dict[str, object]:
    """The ``--set KEY=VALUE`` flags as typed ``RunConfig`` field values."""
    overrides: Dict[str, object] = {}
    for item in items:
        key, separator, raw = item.partition("=")
        if not separator:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        if key == "use_blocked":
            # Legacy key, same rule as the JSON reader: true is dropped.
            check_legacy_use_blocked(_parse_bool(key, raw))
            continue
        if key == "group_by":
            check_legacy_group_by(raw)
        overrides[key] = _coerce_field(key, raw)
    return overrides


def _coerce_field(name: str, raw: str) -> object:
    """Parse a ``--set`` value according to the config field's type."""
    fields = {field.name: field for field in dataclasses.fields(RunConfig)}
    if name not in fields:
        raise ConfigurationError(
            f"unknown config field {name!r}; expected one of "
            + ", ".join(sorted(fields))
        )
    if name == "queries":
        # A workload on the command line: a JSON list of query specs,
        # e.g. --set queries='[{"name":"c","aggregate":"count"}]'.
        import json

        try:
            return json.loads(raw)
        except ValueError as error:
            raise ConfigurationError(
                f"queries expects a JSON list of query specs, got {raw!r}: "
                f"{error}"
            ) from error
    if name == "faults":
        # Comma-separated fault specs (specs themselves use colons), e.g.
        # --set faults=corrupt:0.05,delay:3. Empty clears the field.
        return [token.strip() for token in raw.split(",") if token.strip()]
    default = fields[name].default
    if isinstance(default, bool):
        return _parse_bool(name, raw)
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as error:
        raise ConfigurationError(
            f"{name} expects a number, got {raw!r}"
        ) from error
    return raw


def _describe(args) -> int:
    if args.list_names:
        for name in EXPERIMENT_CONFIGS:
            print(name)
        return 0
    if args.experiment is None:
        print("describe needs an experiment name (or --list)", file=sys.stderr)
        return 2
    try:
        config = describe_experiment(args.experiment)
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(config.to_json(indent=2))
    return 0


def _run_config(args) -> int:
    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            text = pathlib.Path(args.config).read_text()
    except OSError as error:
        print(f"cannot read config: {error}", file=sys.stderr)
        return 2
    try:
        config = RunConfig.from_json(text)
        overrides = _parse_overrides(args.overrides)
        for name in ("epochs", "seed", "scheme"):
            value = getattr(args, name)
            if value is not None:
                overrides[name] = value
        if args.store is not None:
            overrides["storage"] = args.store
        if args.retention is not None:
            overrides["retention"] = args.retention
        if overrides:
            config = config.replace(**overrides)
        if (args.resume or args.kill_at is not None) and (
            args.checkpoint_dir is None
        ):
            raise ConfigurationError(
                "--resume/--kill-at need --checkpoint-dir"
            )
        started = time.time()
        auditor = None
        if args.audit is not None or args.checkpoint_dir is not None:
            # The chaos observers bypass the result cache: an audited or
            # checkpointed run must actually execute.
            from repro.api import RunReport, run_config_result
            from repro.chaos import Auditor, Checkpointer
            from repro.errors import PropertyViolation, SimulationKilled

            if args.audit is not None:
                auditor = Auditor(strict=args.audit == "strict")
            checkpointer = None
            if args.checkpoint_dir is not None:
                checkpointer = Checkpointer(
                    args.checkpoint_dir,
                    interval=args.checkpoint_interval,
                    resume=args.resume,
                    kill_at=args.kill_at,
                )
            try:
                result = run_config_result(
                    config, checkpoint=checkpointer, audit=auditor
                )
            except SimulationKilled as killed:
                print(
                    f"run killed at epoch offset {killed.offset}; checkpoint "
                    f"written to {checkpointer.path} — restart with --resume",
                    file=sys.stderr,
                )
                return 3
            except PropertyViolation as violation:
                print(f"audit violation: {violation}", file=sys.stderr)
                return 4
            report = RunReport(config=config, result=result)
        else:
            session = Session(cache_dir=args.cache_dir)
            report = session.run(config)
    except ConfigurationError as error:
        print(f"invalid run config: {error}", file=sys.stderr)
        return 2
    text = report.render()
    if auditor is not None:
        text += "\n" + auditor.summary()
    elapsed = time.time() - started
    print(f"== run-config [{elapsed:.1f}s]")
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    return 0


def _serve(args) -> int:
    from repro.service import AggregationServer

    try:
        if args.config is not None:
            if args.config == "-":
                text = sys.stdin.read()
            else:
                text = pathlib.Path(args.config).read_text()
            config = RunConfig.from_json(text)
        else:
            config = RunConfig(
                scheme="TD",
                failure="global:0.2",
                num_sensors=60,
                converge_epochs=20,
                reading="uniform:10:100:0",
                epochs=0,
            )
        overrides = _parse_overrides(args.overrides)
        if overrides:
            config = config.replace(**overrides)
        if args.resume and args.checkpoint_dir is None:
            raise ConfigurationError("--resume needs --checkpoint-dir")
        server = AggregationServer(
            config,
            host=args.host,
            port=args.port,
            budget_words=args.budget_words,
            block_epochs=args.block_epochs,
            checkpoint_dir=(
                str(args.checkpoint_dir)
                if args.checkpoint_dir is not None
                else None
            ),
            cache_entries=args.cache_entries,
            pace_seconds=args.pace,
            resume=args.resume,
            verbose=args.verbose,
        )
    except OSError as error:
        print(f"cannot start service: {error}", file=sys.stderr)
        return 2
    except ConfigurationError as error:
        print(f"invalid service configuration: {error}", file=sys.stderr)
        return 2
    host, port = server.address
    print(
        f"== serving {config.scheme} x {config.num_sensors} sensors "
        f"({config.failure}) on http://{host}:{port}",
        flush=True,
    )
    print(
        "   POST /queries (SELECT ... | query-submit | run-config), "
        "POST /run, GET /stats, POST /shutdown",
        flush=True,
    )
    server.serve_forever()
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:10s} {description}")
        return 0
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "describe":
        return _describe(args)
    if args.command == "run-config":
        return _run_config(args)
    if args.command == "serve":
        return _serve(args)
    quick = not args.full
    if args.experiment == "all":
        for name in EXPERIMENTS:
            _run_one(name, quick, args.seed, args.out)
        return 0
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2
    _run_one(args.experiment, quick, args.seed, args.out)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:  # e.g. `repro describe fig2 | head`
        code = 0
    raise SystemExit(code)
