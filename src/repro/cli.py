"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig2 [--full] [--seed N]
    python -m repro.cli run all --out results/
    python -m repro.cli sweep --grid scheme=TAG,SD,TD --grid seed=1,2,3 \
        --set failure=global:0.3 --jobs 4 --cache-dir .sweep-cache
    python -m repro.cli describe fig2 > fig2.json
    python -m repro.cli run-config fig2.json --set epochs=10
    python -m repro.cli run-config fig2.json --audit strict \
        --set faults=corrupt:0.05,delay:3
    python -m repro.cli run-config fig2.json --checkpoint-dir ckpt/ --resume

``list``, ``run NAME`` and ``run all`` read one table,
:data:`repro.experiments.FIGURES`; this module holds no figure of its own.
``run`` prints (and optionally writes) a figure's rows/series as the paper
reports them, with ``--full`` switching from the quick configurations to
the paper-scale ones. ``describe`` dumps a resolved
:class:`~repro.api.RunConfig` as JSON: a figure name resolves through its
row's config (``describe churn-timeline`` is the ``churn_timeline``
entry), and ``describe --list`` names every
:data:`~repro.api.EXPERIMENT_CONFIGS` entry. ``run-config`` executes any
config file through the unified :class:`~repro.api.Session` — so
``repro describe fig2 | repro run-config /dev/stdin`` regenerates the
figure's headline run from its declarative form alone. ``sweep`` fans a
grid of configs through
:meth:`~repro.api.Session.sweep` (process pool, optional on-disk result
cache): each ``--grid FIELD=V1,V2,...`` is one axis over a base config (a
file, or ``RunConfig(scheme="TAG")``), the first axis outermost.

A run has one spelling on the command line: a config file plus repeatable
``--set KEY=VALUE`` overrides of its fields (an empty value clears an
optional field). ``run-config``, ``sweep`` and ``serve --config`` read the
file and apply the overrides alike; no command keeps a flag of its own for
a config field.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import sys
import time
from typing import Dict, Sequence

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
from repro.experiments import FIGURES


def _add_set_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override any config field (repeatable), e.g. "
        "--set num_sensors=60 --set epochs=10; an empty value clears an "
        "optional field",
    )


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
        "sweep", help="run a grid of RunConfigs through the pool"
    )
    sweep_parser.add_argument(
        "config",
        nargs="?",
        default=None,
        help="base RunConfig JSON file ('-' for stdin); defaults to "
        "RunConfig(scheme='TAG')",
    )
    _add_set_option(sweep_parser)
    sweep_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="a grid axis over one config field (repeatable; the first "
        "axis is outermost), e.g. --grid scheme=TAG,SD --grid seed=1,2",
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
        help="a 'repro list' figure that has a config, or a "
        "'describe --list' name",
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
    _add_set_option(config_parser)
    config_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="directory for cached results",
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
    _add_set_option(serve_parser)
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
    figure = FIGURES[name]
    started = time.time()
    text = figure.run(quick, seed).render()
    elapsed = time.time() - started
    print(f"== {name}: {figure.description} [{elapsed:.1f}s]")
    print(text)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n")


def _run_sweep(args) -> int:
    started = time.time()
    try:
        base = _load_config(
            args.config, args.overrides, RunConfig(scheme="TAG")
        )
        configs = expand_grid(base, **_parse_grid(args.grid, args.overrides))
        # More workers than cores only adds scheduling overhead: clamp
        # explicit --jobs to the CPU count (parallel_map additionally
        # degrades to serial on single-CPU hosts).
        cpus = os.cpu_count() or 1
        cells = len(configs)
        jobs = min(args.jobs, cpus) if args.jobs > 0 else min(cells, cpus)
        report = Session(jobs=jobs, cache_dir=args.cache_dir).sweep(configs)
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


def _parse_grid(
    items: Sequence[str], overrides: Sequence[str]
) -> Dict[str, list]:
    """The ``--grid FIELD=V1,V2,...`` axes, in command-line order."""
    fixed = {item.partition("=")[0] for item in overrides}
    axes: Dict[str, list] = {}
    for item in items:
        name, separator, raw = item.partition("=")
        if not separator:
            raise ConfigurationError(
                f"--grid expects FIELD=V1,V2,..., got {item!r}"
            )
        if name in ("faults", "queries"):
            raise ConfigurationError(
                f"--grid cannot vary {name}: its values are lists, which "
                f"commas cannot separate; run one sweep per value with "
                f"--set {name}=..."
            )
        if name in axes or name in fixed:
            raise ConfigurationError(
                f"{name} is named twice by --set/--grid; give each field once"
            )
        axes[name] = [
            _coerce_field(name, token.strip()) for token in raw.split(",")
        ]
    return axes


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
            # Legacy key, same rule as the JSON reader: empty (its default,
            # None) is dropped.
            check_legacy_group_by(raw or None)
            continue
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
    if raw == "" and fields[name].default is None:
        return None
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
        # --set faults=corrupt:0.05,delay:3.
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
    name = args.experiment
    if name in FIGURES:
        name = FIGURES[name].config
    if name is None:
        unconfigured = [key for key, row in FIGURES.items() if row.config is None]
        print(
            f"{args.experiment!r} runs its own network loop and has no "
            f"config; the figures without one are {', '.join(unconfigured)} "
            "(use 'repro run')",
            file=sys.stderr,
        )
        return 2
    try:
        config = describe_experiment(name)
    except ConfigurationError as error:
        print(f"{error}, or a 'repro list' name", file=sys.stderr)
        return 2
    print(config.to_json(indent=2))
    return 0


def _load_config(
    path: str | None, overrides: Sequence[str], default: RunConfig | None = None
) -> RunConfig:
    """The config file at ``path`` ('-' is stdin; None is ``default``)
    with the ``--set`` overrides applied."""
    if path is None:
        config = default
    else:
        try:
            if path == "-":
                text = sys.stdin.read()
            else:
                text = pathlib.Path(path).read_text()
        except OSError as error:
            raise ConfigurationError(f"cannot read config: {error}") from error
        config = RunConfig.from_json(text)
    return config.replace(**_parse_overrides(overrides))


def _run_config(args) -> int:
    try:
        config = _load_config(args.config, args.overrides)
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
        config = _load_config(
            args.config,
            args.overrides,
            RunConfig(
                scheme="TD",
                failure="global:0.2",
                num_sensors=60,
                converge_epochs=20,
                reading="uniform:10:100:0",
                epochs=0,
            ),
        )
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
        width = max(len(name) for name in FIGURES)
        for name, figure in FIGURES.items():
            print(f"{name:{width}s} {figure.description}")
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
        for name in FIGURES:
            _run_one(name, quick, args.seed, args.out)
        return 0
    if args.experiment not in FIGURES:
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
