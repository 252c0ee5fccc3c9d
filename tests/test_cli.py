"""Tests for the experiment CLI."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output


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
        # One entry per table/figure of the paper's evaluation, plus the
        # quantified latency column, the design-knob sweeps, and the
        # dynamic-topology timeline.
        expected = {
            "table1",
            "fig2",
            "table2",
            "fig4",
            "fig5a",
            "fig5b",
            "fig6",
            "churn-timeline",
            "labdata",
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
        }
        assert set(EXPERIMENTS) == expected

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
                "--epochs",
                "2",
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
