"""Tests for swept grids: configs, the process pool, the result cache, CLI."""

from __future__ import annotations

import json

import pytest

import repro.api as api_module
from repro.api import RunConfig, Session, config_digest, run_config_result
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.network.failures import GlobalLoss, NoLoss, RegionalLoss
from repro.parallel import parallel_map
from repro.registry import build_failure_model, build_reading

QUICK = dict(num_sensors=40, epochs=4, converge_epochs=8, scenario_seed=4)


class TestSweepSpec:
    """A grid cell is a plain :class:`RunConfig`."""

    def test_digest_is_stable_and_distinct(self):
        a = RunConfig(scheme="TAG", seed=1, failure="global:0.2", **QUICK)
        b = RunConfig(scheme="TAG", seed=1, failure="global:0.2", **QUICK)
        c = RunConfig(scheme="TAG", seed=2, failure="global:0.2", **QUICK)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="nope", seed=1, failure="none")

    def test_rejects_bad_failure_spec(self):
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="TAG", seed=1, failure="global")

    def test_failure_specs_parse(self):
        assert isinstance(build_failure_model("none"), NoLoss)
        assert build_failure_model("global:0.4") == GlobalLoss(0.4)
        assert build_failure_model("regional:0.8:0.1") == RegionalLoss(0.8, 0.1)

    def test_reading_specs_parse(self):
        assert build_reading("constant:2.0")(1, 0) == 2.0
        assert build_reading("uniform:1:9:3")(1, 0) >= 1


class TestParallelMap:
    def test_serial_fallback_and_order(self):
        assert parallel_map(abs, [-3, 2, -1], jobs=1) == [3, 2, 1]

    def test_pool_preserves_order(self):
        items = list(range(20, 0, -1))
        assert parallel_map(abs, items, jobs=4) == items


class TestSweepRunner:
    """``Session(jobs=, cache_dir=)`` is the one sweep executor."""

    def _configs(self):
        return [
            RunConfig(scheme=scheme, seed=seed, failure="global:0.25", **QUICK)
            for scheme in ("TAG", "SD", "TD")
            for seed in (1, 2)
        ]

    def test_pooled_matches_serial(self):
        configs = self._configs()
        serial = Session(jobs=1).run_many(configs)
        pooled = Session(jobs=3).run_many(configs)
        for left, right in zip(serial, pooled):
            assert left.estimates == right.estimates
            assert left.scheme_name == right.scheme_name

    def test_cache_round_trip_identical(self, tmp_path, monkeypatch):
        configs = self._configs()[:3]
        first = Session(jobs=2, cache_dir=tmp_path).run_many(configs)
        assert len(list(tmp_path.glob("*.json"))) == len(configs)

        # A cached re-run must not recompute anything.
        def _boom(config):  # pragma: no cover - would mean a cache miss
            raise AssertionError("cache miss on a cached config")

        monkeypatch.setattr(api_module, "run_config_result", _boom)
        second = Session(jobs=1, cache_dir=tmp_path).run_many(configs)
        for left, right in zip(first, second):
            assert left.estimates == right.estimates
            assert left.energy.total_words == right.energy.total_words

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        config = self._configs()[0]
        session = Session(jobs=1, cache_dir=tmp_path)
        [first] = session.run_many([config])
        path = tmp_path / f"{config_digest(config)}.json"
        path.write_text("{not json")
        [second] = session.run_many([config])
        assert first.estimates == second.estimates

    def test_paired_seeds_share_loss_draws(self):
        # TAG contributing counts are a pure function of the channel draws,
        # so the same seed via two separate workers is the same run.
        config = RunConfig(scheme="TAG", seed=5, failure="global:0.3", **QUICK)
        again = RunConfig(scheme="TAG", seed=5, failure="global:0.3", **QUICK)
        assert (
            run_config_result(config).estimates
            == run_config_result(again).estimates
        )

    def test_run_grid_order(self):
        report = Session(jobs=2).sweep(
            {"failure": ["global:0.0", "global:0.3"], "scheme": ["TAG", "SD"]},
            RunConfig(scheme="TAG", **QUICK),
        )
        labels = [(config.failure, config.scheme) for config in report.configs]
        assert labels == [
            ("global:0.0", "TAG"),
            ("global:0.0", "SD"),
            ("global:0.3", "TAG"),
            ("global:0.3", "SD"),
        ]
        text = report.render()
        assert "rms_error" in text and "TAG" in text


class TestCliSweep:
    def test_sweep_subcommand_smoke(self, tmp_path, capsys):
        out = tmp_path / "sweep.txt"
        code = cli_main(
            [
                "sweep",
                "--grid",
                "failure=global:0.2",
                "--grid",
                "scheme=TAG,SD",
                "--grid",
                "seed=1",
                "--set",
                "num_sensors=40",
                "--set",
                "epochs=4",
                "--set",
                "converge_epochs=6",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "rms_error" in printed
        assert out.exists()
        cached = list((tmp_path / "cache").glob("*.json"))
        assert len(cached) == 2
        payload = json.loads(cached[0].read_text())
        # One cache format for sweeps and Session.run alike.
        assert "config" in payload and "result" in payload
