"""One ledger for every pinned result: how it is encoded, hashed and stored.

A golden is the SHA-256 of a payload's canonical bytes, stored in
``ledger.json`` under a ``suite/case`` key. ``bytes`` payloads (``repr``
fingerprints, checkpoint files, numpy buffers) are hashed as they are;
anything else is ``json.dumps(..., sort_keys=True)`` with
:func:`repro.serialization.to_jsonable` applied to every registered object
inside it, so a ``RunResult`` encodes to ``serialization.dumps(result)``.
A key asserted with ``run=`` also stores the paper's currency of that run
for the re-pin table; ``python -m tests.goldens repin`` re-records every
key whose digest moved (``__main__.py``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib

from repro.serialization import to_jsonable

LEDGER_PATH = pathlib.Path(__file__).with_name("ledger.json")

#: Record mode: ``repin`` sets it in the pytest process it starts, naming a
#: file that collects one JSON line per assertion instead of checking it.
#: An environment variable reaches the ``goldens`` module the tests import
#: (``tests/`` on ``sys.path``), which is not the ``tests.goldens`` module
#: object that ``python -m tests.goldens`` runs.
RECORD_ENV = "GOLDENS_RECORD"


def encode(payload) -> bytes:
    if isinstance(payload, bytes):
        return payload
    return json.dumps(payload, sort_keys=True, default=to_jsonable).encode()


def digest(payload) -> str:
    return hashlib.sha256(encode(payload)).hexdigest()


def fingerprint(result) -> bytes:
    """The seed engine's result fingerprint: ``repr`` of every estimate,
    contributing count, channel log and per-node energy of a run."""
    epochs = result.epochs
    logs = [
        (e.log.transmissions, e.log.deliveries, e.log.drops,
         e.log.words_sent, e.log.messages_sent)
        for e in epochs
    ]
    return repr((
        [e.estimate for e in epochs],
        [e.contributing for e in epochs],
        [e.contributing_estimate for e in epochs],
        logs,
        sorted(result.energy.per_node_uj.items()),
    )).encode()


def currency(run) -> dict:
    """RMS error, words per epoch and mean contributing fraction of a run."""
    words = run.energy.total_words / run.num_epochs if run.num_epochs else 0.0
    sensors = len(run.energy.per_node_uj)
    return {
        "rms_error": round(run.rms_error(), 6),
        "words_per_epoch": round(words, 6),
        "contributing": round(run.mean_contributing_fraction(sensors), 6),
    }


def entry_digest(entry) -> str:
    """A ledger value is a digest, or ``{"digest": ..., **currency}``."""
    return entry if isinstance(entry, str) else entry["digest"]


def read_ledger(path=LEDGER_PATH) -> dict:
    return json.loads(path.read_text())


def write_ledger(entries: dict, path=LEDGER_PATH) -> None:
    """One line per key, sorted: a re-pin diffs as one line per moved key."""
    lines = [
        f" {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
        for key in sorted(entries)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@functools.cache
def _recorded() -> dict:
    return read_ledger()


def keys(prefix: str) -> list:
    """The recorded keys under ``prefix``, sorted."""
    return sorted(key for key in _recorded() if key.startswith(prefix))


def assert_golden(key: str, payload, run=None) -> None:
    """Fail unless ``payload`` hashes to the digest recorded under ``key``."""
    value = digest(payload)
    record = os.environ.get(RECORD_ENV)
    if record:
        entry = value if run is None else {"digest": value, **currency(run)}
        with open(record, "a") as handle:
            handle.write(json.dumps([key, entry]) + "\n")
        return
    assert key in _recorded(), (
        f"golden {key!r} is not in the ledger; record it with "
        "`PYTHONPATH=src python -m tests.goldens repin`"
    )
    expected = entry_digest(_recorded()[key])
    assert value == expected, (
        f"golden {key!r} moved: recorded {expected}, got {value}"
    )
