"""The golden ledger itself: assertion, encoding and ``repin``.

The ``repin`` cases run the real command on a throwaway tree (a copy of
``tests/goldens/`` beside one subject module), so the pytest process it
starts imports the ledger as the tests do.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import goldens
import repro
from repro import serialization
from repro.api import RunConfig, run_config_result

CONFIG = dict(scheme="TAG", failure="global:0.3", num_sensors=20, epochs=3)

SUBJECT = f"""
import os

from goldens import assert_golden
from repro.api import RunConfig, run_config_result


def test_subject():
    assert_golden("subject/still", b"unchanged")
    seed = int(os.environ.get("SUBJECT_SEED", "1"))
    result = run_config_result(RunConfig(**{CONFIG!r}, seed=seed))
    assert_golden("subject/run", result, run=result)
"""


@pytest.fixture(scope="module")
def small_run():
    return run_config_result(RunConfig(**CONFIG, seed=1))


def test_mismatch_names_the_key_and_both_digests(monkeypatch):
    monkeypatch.delenv(goldens.RECORD_ENV, raising=False)
    recorded = goldens.entry_digest(goldens.read_ledger()["sweeps/split"])
    with pytest.raises(AssertionError) as failure:
        goldens.assert_golden("sweeps/split", b"moved")
    for part in ("sweeps/split", recorded, goldens.digest(b"moved")):
        assert part in str(failure.value)


def test_unknown_key_fails_and_is_never_recorded(monkeypatch):
    monkeypatch.delenv(goldens.RECORD_ENV, raising=False)
    before = goldens.LEDGER_PATH.read_bytes()
    with pytest.raises(AssertionError, match="suite/never-recorded"):
        goldens.assert_golden("suite/never-recorded", b"payload")
    assert goldens.LEDGER_PATH.read_bytes() == before


def test_encoding_rules(small_run):
    assert goldens.encode(small_run) == serialization.dumps(small_run).encode()
    records = [serialization.to_jsonable(epoch) for epoch in small_run.epochs]
    assert goldens.encode(small_run.epochs) == json.dumps(
        records, sort_keys=True
    ).encode()
    assert goldens.encode(b"\x00raw") == b"\x00raw"
    assert goldens.digest(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


@pytest.fixture
def tree(tmp_path, small_run):
    """A tests/ tree holding the ledger package and one subject module."""
    tests = tmp_path / "tests"
    shutil.copytree(
        pathlib.Path(goldens.__file__).parent,
        tests / "goldens",
        ignore=shutil.ignore_patterns("__pycache__", "ledger.json"),
    )
    (tests / "test_subject.py").write_text(SUBJECT)
    ledger = tests / "goldens" / "ledger.json"
    run = {"digest": goldens.digest(small_run), **goldens.currency(small_run)}
    goldens.write_ledger(
        {"subject/still": goldens.digest(b"unchanged"), "subject/run": run},
        ledger,
    )
    return tmp_path, ledger


def _repin(root, **env):
    environ = dict(os.environ, **env)
    environ.pop(goldens.RECORD_ENV, None)
    environ["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "tests.goldens", "repin"],
        cwd=root, env=environ, capture_output=True, text=True,
    )


def test_repin_on_an_unchanged_tree_writes_nothing(tree):
    root, ledger = tree
    before = ledger.read_bytes()
    done = _repin(root)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "2 keys asserted, 0 moved or new, 0 orphaned" in done.stdout
    assert ledger.read_bytes() == before


def test_repin_rewrites_only_the_moved_key(tree):
    root, ledger = tree
    before = goldens.read_ledger(ledger)
    done = _repin(root, SUBJECT_SEED="2")
    assert done.returncode == 0, done.stdout + done.stderr
    after = goldens.read_ledger(ledger)
    assert after["subject/still"] == before["subject/still"]
    assert after["subject/run"]["digest"] != before["subject/run"]["digest"]
    rms = before["subject/run"]["rms_error"], after["subject/run"]["rms_error"]
    assert rms[0] != rms[1] and f"{rms[0]:g} -> {rms[1]:g}" in done.stdout
    assert "1 moved or new" in done.stdout


def test_repin_refuses_an_orphan(tree):
    root, ledger = tree
    entries = goldens.read_ledger(ledger)
    goldens.write_ledger({**entries, "subject/gone": "0" * 64}, ledger)
    before = ledger.read_bytes()
    done = _repin(root, SUBJECT_SEED="2")
    assert done.returncode == 1 and "orphan: subject/gone" in done.stdout
    assert ledger.read_bytes() == before
