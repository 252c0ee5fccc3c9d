"""Tests for the experiment CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import FIGURES


class TestList:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(FIGURES)
        # Every description starts in one column, past the longest name.
        starts = {
            line.index(figure.description)
            for line, figure in zip(lines, FIGURES.values())
        }
        assert starts == {max(map(len, FIGURES)) + 1}


class TestRun:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        output = capsys.readouterr().out
        assert "Te" in output
        assert "table2" in output

    def test_run_with_output_dir(self, tmp_path, capsys):
        assert main(["run", "table2", "--out", str(tmp_path)]) == 0
        written = tmp_path / "table2.txt"
        assert written.exists()
        assert "Te" in written.read_text()

    def test_experiment_registry_complete(self):
        # One row per table/figure of the paper's evaluation, plus the
        # quantified latency column, the design-knob sweeps, and the
        # dynamic-topology timeline, in the order `repro list` prints them.
        assert list(FIGURES) == [
            "table1",
            "fig2",
            "table2",
            "fig4",
            "fig5a",
            "fig5b",
            "fig6",
            "labdata",
            "churn-timeline",
            "fig7a",
            "fig7b",
            "fig8",
            "fig9a",
            "fig9b",
            "latency",
            "lifetime",
            "sweep-threshold",
            "sweep-interval",
            "sweep-heuristic",
            "sweep-split",
        ]

    def test_run_latency(self, capsys):
        assert main(["run", "latency"]) == 0
        output = capsys.readouterr().out
        assert "footnote 6" in output
        assert "tree (count)" in output


class TestDescribeAndRunConfig:
    def test_describe_list(self, capsys):
        from repro.api import EXPERIMENT_CONFIGS

        assert main(["describe", "--list"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == list(EXPERIMENT_CONFIGS)

    def test_describe_round_trips(self, capsys):
        from repro.api import EXPERIMENT_CONFIGS, RunConfig

        assert main(["describe", "fig2"]) == 0
        printed = capsys.readouterr().out
        assert RunConfig.from_json(printed) == EXPERIMENT_CONFIGS["fig2"]

    def test_describe_unknown_is_actionable(self, capsys):
        assert main(["describe", "fig99"]) == 2
        assert "describable" in capsys.readouterr().err

    def test_describe_needs_a_name(self, capsys):
        assert main(["describe"]) == 2

    @pytest.mark.parametrize(
        "figure", [name for name, row in FIGURES.items() if row.config]
    )
    def test_describe_resolves_a_figure_through_its_row(self, figure, capsys):
        from repro.api import EXPERIMENT_CONFIGS, RunConfig

        assert main(["describe", figure]) == 0
        printed = RunConfig.from_json(capsys.readouterr().out)
        assert printed == EXPERIMENT_CONFIGS[FIGURES[figure].config]

    def test_describe_names_only_the_rows_without_a_config(self, capsys):
        assert main(["describe", "fig7a"]) == 2
        error = capsys.readouterr().err
        named = {name for name in FIGURES if f" {name}" in error}
        assert named == {
            "table2", "fig7a", "fig7b", "fig8", "fig9a", "fig9b",
            "sweep-split",
        }

    def test_run_config_executes_with_overrides(self, tmp_path, capsys):
        from repro.api import RunConfig

        config = RunConfig(
            scheme="TAG", num_sensors=40, epochs=3, converge_epochs=0,
            failure="none", scenario_seed=4,
        )
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        out = tmp_path / "report.txt"
        code = main(
            [
                "run-config",
                str(path),
                "--set",
                "epochs=2",
                "--set",
                "failure=global:0.2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "rms_error" in printed
        assert "epochs=2" in printed
        assert out.exists()

    def test_run_config_rejects_bad_payloads(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"scheme": "TAG", "epocks": 3}')
        assert main(["run-config", str(path)]) == 2
        assert "epocks" in capsys.readouterr().err
        path.write_text("{not json")
        assert main(["run-config", str(path)]) == 2
        assert main(["run-config", str(tmp_path / "missing.json")]) == 2

    def test_run_config_rejects_bad_overrides(self, tmp_path, capsys):
        from repro.api import RunConfig

        path = tmp_path / "config.json"
        path.write_text(
            RunConfig(
                scheme="TAG", num_sensors=40, epochs=2, converge_epochs=0
            ).to_json()
        )
        assert main(["run-config", str(path), "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err
        assert main(["run-config", str(path), "--set", "nonsense"]) == 2
        capsys.readouterr()
        assert main(["run-config", str(path), "--set", "epochs=abc"]) == 2
        assert "epochs" in capsys.readouterr().err
        assert main(["run-config", str(path), "--set", "use_batch=maybe"]) == 2
        capsys.readouterr()
        # The legacy knob: its dead value names the replacement, its old
        # default is accepted and dropped.
        assert main(["run-config", str(path), "--set", "use_blocked=false"]) == 2
        assert "use_batch=false" in capsys.readouterr().err
        assert main(["run-config", str(path), "--set", "use_blocked=true"]) == 0


class TestOneSpellingForARun:
    """A run is a RunConfig plus ``--set``/``--grid``: no shadow flags."""

    def test_no_command_option_shadows_a_config_field(self):
        import argparse
        import dataclasses

        from repro.api import RunConfig
        from repro.cli import _build_parser

        fields = {field.name for field in dataclasses.fields(RunConfig)}
        commands = next(
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        for name in ("run-config", "sweep", "serve"):
            dests = {action.dest for action in commands[name]._actions}
            assert dests & fields == set(), name

    @staticmethod
    def _write(tmp_path, **fields):
        from repro.api import RunConfig

        path = tmp_path / "config.json"
        path.write_text(
            RunConfig(
                scheme="TAG", num_sensors=20, epochs=1, converge_epochs=0,
                **fields,
            ).to_json()
        )
        return str(path)

    @staticmethod
    def _rows(output):
        lines = output.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("---"))
        return [tuple(line.split()[:3]) for line in lines[start + 1:] if line]

    def test_grid_axes_follow_command_line_order(self, tmp_path, capsys):
        path = self._write(tmp_path, failure="global:0.2")
        grid = ["--grid", "scheme=TAG,SD", "--grid", "seed=1,2"]
        assert main(["sweep", path, "--jobs", "1"] + grid) == 0
        assert self._rows(capsys.readouterr().out) == [
            ("global:0.2", "TAG", "1"),
            ("global:0.2", "TAG", "2"),
            ("global:0.2", "SD", "1"),
            ("global:0.2", "SD", "2"),
        ]
        assert main(["sweep", path, "--jobs", "1"] + grid[2:] + grid[:2]) == 0
        assert self._rows(capsys.readouterr().out) == [
            ("global:0.2", "TAG", "1"),
            ("global:0.2", "SD", "1"),
            ("global:0.2", "TAG", "2"),
            ("global:0.2", "SD", "2"),
        ]

    def test_a_swept_field_gets_its_own_column(self, capsys):
        args = [
            "sweep", "--jobs", "1", "--grid", "threshold=0.8,0.95",
            "--set", "scheme=TD", "--set", "failure=global:0.2",
            "--set", "num_sensors=30", "--set", "epochs=3",
            "--set", "converge_epochs=10",
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("failure"))
        assert header.split()[:4] == ["failure", "scheme", "seed", "threshold"]
        rows = [tuple(line.split()[:4]) for line in lines[lines.index(header) + 2:]]
        assert rows == [
            ("global:0.2", "TD", "1", "0.8"),
            ("global:0.2", "TD", "1", "0.95"),
        ]

    def test_an_empty_group_by_is_the_legacy_default(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert main(["run-config", path, "--set", "group_by="]) == 0
        capsys.readouterr()
        assert main(["run-config", path, "--set", "group_by=region:1"]) == 2
        error = capsys.readouterr().err
        assert "query='SELECT avg GROUP BY region:1'" in error

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--grid", "faults=corrupt:0.1"], "--grid cannot vary faults"),
            (["--grid", "queries=[]"], "--grid cannot vary queries"),
            (["--grid", "seed=1", "--set", "seed=2"], "named twice"),
            (["--grid", "seed=1", "--grid", "seed=2"], "named twice"),
            (["--grid", "seed"], "FIELD=V1,V2"),
            (["--grid", "seed=1,x"], "seed expects a number"),
            (["--grid", "sensors=20"], "unknown config field 'sensors'"),
        ],
    )
    def test_bad_grids_are_refused(self, tmp_path, capsys, args, message):
        assert main(["sweep", self._write(tmp_path)] + args) == 2
        error = capsys.readouterr().err
        assert "invalid sweep configuration" in error and message in error

    def test_empty_value_clears_an_optional_field(self, tmp_path):
        from repro.cli import _load_config

        path = self._write(tmp_path, query="SELECT avg", storage="memory")
        assert _load_config(path, ["query="]).query is None
        assert _load_config(path, ["storage="]).storage is None
        workload = self._write(
            tmp_path, queries=[{"name": "c", "aggregate": "count"}]
        )
        assert _load_config(workload, ["queries="]).queries is None

    def test_a_described_query_becomes_a_workload(self, tmp_path, capsys):
        path = self._write(tmp_path, query="SELECT avg")
        queries = '[{"name":"c","aggregate":"count"},{"name":"s","aggregate":"sum"}]'
        assert main(["run-config", path, "--set", f"queries={queries}"]) == 2
        assert "both 'query' and 'queries'" in capsys.readouterr().err
        code = main(
            ["run-config", path, "--set", "query=", "--set", f"queries={queries}"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "query c:" in output and "query s:" in output
