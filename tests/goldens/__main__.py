"""Re-pin the golden ledger: ``PYTHONPATH=src python -m tests.goldens repin``.

Runs every test module that imports ``assert_golden`` (``golden_fig9b.py``
included) in one pytest process in record mode, prints before -> after for
every moved or new key (with the run's currency beside keys asserted with
``run=``) and rewrites only those keys. Nothing is written and the exit
status is 1 when a suite fails, when a key was asserted with two digests,
or when a ledger key was never asserted (an orphan: delete it by hand if
its test is gone).
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from . import LEDGER_PATH, RECORD_ENV, entry_digest, read_ledger, write_ledger

TESTS_DIR = LEDGER_PATH.parent.parent
CURRENCY = ("rms_error", "words_per_epoch", "contributing")


def observe() -> tuple:
    """``(pytest status, [(key, ledger entry), ...])`` of one recorded run."""
    suites = sorted(
        str(path)
        for path in TESTS_DIR.glob("*.py")
        if any(
            isinstance(node, ast.ImportFrom)
            and node.module == "goldens"
            and "assert_golden" in {alias.name for alias in node.names}
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    with tempfile.TemporaryDirectory() as workdir:
        record = pathlib.Path(workdir) / "observed.jsonl"
        record.touch()
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", *suites],
            cwd=TESTS_DIR.parent,
            env={**os.environ, RECORD_ENV: str(record)},
        ).returncode
        lines = record.read_text().splitlines()
    return status, [tuple(json.loads(line)) for line in lines]


def _cell(entry, field: str) -> str:
    if field == "digest":
        return entry_digest(entry)[:12] if entry else "-"
    return f"{entry[field]:g}" if isinstance(entry, dict) else "-"


def row(key: str, before, after) -> str:
    """``key  digest a -> b  rms_error x -> y ...`` of one changed key."""
    cells = [key]
    for field in ("digest", *CURRENCY):
        old, new = _cell(before, field), _cell(after, field)
        if (old, new) != ("-", "-"):
            cells.append(f"{field} {old} -> {new}")
    return "  ".join(cells)


def repin() -> int:
    ledger = read_ledger()
    status, observed = observe()
    if status != 0:
        print(f"repin: the suites failed (pytest exit {status}); "
              "the ledger is unchanged")
        return 1
    seen = dict(reversed(observed))  # the first assertion of each key
    conflicts = sorted(
        {k for k, e in observed if entry_digest(e) != entry_digest(seen[k])}
    )
    changed = {
        key: entry
        for key, entry in seen.items()
        if key not in ledger or entry_digest(ledger[key]) != entry_digest(entry)
    }
    orphans = sorted(set(ledger) - set(seen))
    for key in sorted(changed):
        print(row(key, ledger.get(key), changed[key]))
    print(f"repin: {len(seen)} keys asserted, {len(changed)} moved or new, "
          f"{len(orphans)} orphaned")
    for key in orphans:
        print(f"  orphan: {key} (no test asserts it)")
    for key in conflicts:
        print(f"  conflict: {key} was asserted with two digests")
    if orphans or conflicts:
        print("repin: the ledger is unchanged")
        return 1
    if changed:
        write_ledger({**ledger, **changed})
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["repin"]:
        print("usage: python -m tests.goldens repin", file=sys.stderr)
        sys.exit(2)
    sys.exit(repin())
