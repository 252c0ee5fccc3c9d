"""Pluggable epoch-result stores: where streamed results land.

The retention layer lets a run drop :class:`EpochResult` objects from RAM
as they stream past; this module gives them somewhere durable to go. A
*store spec* string on ``RunConfig.storage`` (``--set storage=SPEC`` on the
CLI) names a registered backend plus its target::

    memory              in-process dict (the default when a spec is given
                        without one being needed; survives for the life of
                        the process — what sweeps and tests use)
    jsonl:DIR           one ``<digest>.jsonl`` file per run under DIR, one
                        serialized epoch-result per line (append-friendly,
                        greppable, resume-safe)
    sqlite:PATH         one stdlib-sqlite database at PATH, rows keyed by
                        (digest, epoch)

Stores are keyed by :func:`repro.api.config_digest`, the same digest the
result cache uses, so a spilled timeline can always be re-associated with
its config. New backends join via :func:`register_store` — the registry
shape of :mod:`repro.registry` (and the Delta codebase's MongoDB storage
registry, per the ROADMAP): a name, a factory, loud errors listing what
exists.

Epoch records are encoded through :mod:`repro.serialization`'s
``epoch-result`` codec, so whatever round-trips through a report
round-trips through a store byte-identically.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Backend name -> factory(target) -> ResultStore.
_STORES: Dict[str, Callable[[Optional[str]], "ResultStore"]] = {}


def register_store(name: str):
    """Register a result-store backend for ``name[:TARGET]`` specs.

    The factory receives the spec's target token (the part after the first
    ``:``, or ``None``) and returns a :class:`ResultStore`.
    """

    def decorator(factory: Callable[[Optional[str]], "ResultStore"]):
        _STORES[name] = factory
        return factory

    return decorator


def store_names() -> List[str]:
    """Registered backend names, sorted (for error messages and docs)."""
    return sorted(_STORES)


def _split_spec(spec: str) -> Tuple[str, Optional[str]]:
    if not isinstance(spec, str) or not spec:
        raise ConfigurationError(
            f"store spec must be a non-empty string, got {spec!r}"
        )
    name, _, target = spec.partition(":")
    return name, (target or None)


def validate_store_spec(spec: str) -> None:
    """Cheap eager validation: registered name, sane target shape.

    No filesystem is touched — a config naming a store on a host that
    cannot write it is still a valid config that fails loudly when run.
    """
    name, target = _split_spec(spec)
    if name not in _STORES:
        raise ConfigurationError(
            f"unknown result store {name!r}; registered stores: "
            + ", ".join(store_names())
        )
    if name == "memory" and target is not None:
        raise ConfigurationError(
            "the 'memory' store takes no target; use plain 'memory'"
        )
    if name in ("jsonl", "sqlite") and target is None:
        raise ConfigurationError(
            f"the {name!r} store needs a target path: '{name}:PATH'"
        )


def build_store(spec: str) -> "ResultStore":
    """Resolve a spec to a live store instance."""
    validate_store_spec(spec)
    name, target = _split_spec(spec)
    return _STORES[name](target)


def open_writer(
    spec: str, digest: str, append: bool = False
) -> "ResultWriter":
    """Open a writer for one run's epoch stream.

    ``append=False`` (a fresh run) replaces whatever the store held for
    the digest; ``append=True`` (a checkpoint-resumed run) keeps the
    records the interrupted run already spilled and continues after them.
    """
    return build_store(spec).writer(digest, append=append)


def load_epochs(spec: str, digest: str) -> List[object]:
    """The full stored timeline of one run, in epoch order."""
    return build_store(spec).load(digest)


def count_epochs(spec: str, digest: str) -> int:
    """How many epoch records the store holds for one run."""
    return build_store(spec).count(digest)


class ResultWriter:
    """One run's open epoch stream into a store.

    Subclasses implement ``_write``/``close``; ``records`` counts appends
    over the writer's lifetime (surfaced on the service's ``GET /stats``).
    """

    def __init__(self) -> None:
        self.records = 0

    def append(self, result) -> None:
        self._write(result)
        self.records += 1

    def _write(self, result) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class ResultStore:
    """A result store backend: per-run writers plus lazy reload."""

    spec: str

    def writer(self, digest: str, append: bool = False) -> ResultWriter:
        raise NotImplementedError

    def load(self, digest: str) -> List[object]:
        raise NotImplementedError

    def iter_epochs(self, digest: str) -> Iterator[object]:
        return iter(self.load(digest))

    def count(self, digest: str) -> int:
        return sum(1 for _ in self.iter_epochs(digest))


class _MemoryWriter(ResultWriter):
    def __init__(self, rows: List[object]) -> None:
        super().__init__()
        self._rows = rows

    def _write(self, result) -> None:
        self._rows.append(result)

    def close(self) -> None:
        pass


@register_store("memory")
class MemoryStore(ResultStore):
    """Process-global in-RAM store: the default, and the test double.

    Storage is class-global so every instance resolved from the same spec
    sees the same rows — ``RunReport.load_epochs`` must find what
    ``run_config_result`` spilled even though each resolves the spec
    independently.
    """

    _rows_by_digest: Dict[str, List[object]] = {}

    def __init__(self, target: Optional[str] = None) -> None:
        self.spec = "memory"

    def writer(self, digest: str, append: bool = False) -> ResultWriter:
        cls = type(self)
        if not append or digest not in cls._rows_by_digest:
            cls._rows_by_digest[digest] = []
        return _MemoryWriter(cls._rows_by_digest[digest])

    def load(self, digest: str) -> List[object]:
        return list(self._rows_by_digest.get(digest, []))

    def count(self, digest: str) -> int:
        return len(self._rows_by_digest.get(digest, []))

    @classmethod
    def clear(cls) -> None:
        """Drop all stored rows (test isolation)."""
        cls._rows_by_digest.clear()


class _JsonlWriter(ResultWriter):
    def __init__(self, path: str, append: bool) -> None:
        super().__init__()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._handle = open(path, "a" if append else "w")

    def _write(self, result) -> None:
        from repro.serialization import to_jsonable

        self._handle.write(json.dumps(to_jsonable(result), sort_keys=True))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.close()


@register_store("jsonl")
class JsonlStore(ResultStore):
    """One append-only ``<digest>.jsonl`` file per run under a directory."""

    def __init__(self, target: Optional[str]) -> None:
        if not target:
            raise ConfigurationError(
                "the 'jsonl' store needs a directory: 'jsonl:DIR'"
            )
        self.spec = f"jsonl:{target}"
        self.directory = target

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.jsonl")

    def writer(self, digest: str, append: bool = False) -> ResultWriter:
        return _JsonlWriter(self._path(digest), append)

    def iter_epochs(self, digest: str) -> Iterator[object]:
        from repro.serialization import from_jsonable

        path = self._path(digest)
        if not os.path.exists(path):
            return
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield from_jsonable(json.loads(line))

    def load(self, digest: str) -> List[object]:
        return list(self.iter_epochs(digest))


class _SqliteWriter(ResultWriter):
    #: Appends between commits: bounds both the WAL burst and the window
    #: of records lost to a hard kill.
    COMMIT_EVERY = 256

    def __init__(self, connection, digest: str) -> None:
        super().__init__()
        self._connection = connection
        self._digest = digest
        self._pending = 0

    def _write(self, result) -> None:
        from repro.serialization import to_jsonable

        self._connection.execute(
            "INSERT INTO epochs (digest, epoch, payload) VALUES (?, ?, ?)",
            (
                self._digest,
                result.epoch,
                json.dumps(to_jsonable(result), sort_keys=True),
            ),
        )
        self._pending += 1
        if self._pending >= self.COMMIT_EVERY:
            self._connection.commit()
            self._pending = 0

    def close(self) -> None:
        self._connection.commit()
        self._connection.close()


@register_store("sqlite")
class SqliteStore(ResultStore):
    """All runs in one stdlib-sqlite file, rows keyed (digest, epoch)."""

    def __init__(self, target: Optional[str]) -> None:
        if not target:
            raise ConfigurationError(
                "the 'sqlite' store needs a database path: 'sqlite:PATH'"
            )
        self.spec = f"sqlite:{target}"
        self.path = target

    def _connect(self):
        import sqlite3

        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        connection = sqlite3.connect(self.path)
        connection.execute(
            "CREATE TABLE IF NOT EXISTS epochs ("
            " digest TEXT NOT NULL,"
            " epoch INTEGER NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        connection.execute(
            "CREATE INDEX IF NOT EXISTS epochs_by_digest"
            " ON epochs (digest, epoch)"
        )
        return connection

    def writer(self, digest: str, append: bool = False) -> ResultWriter:
        connection = self._connect()
        if not append:
            connection.execute(
                "DELETE FROM epochs WHERE digest = ?", (digest,)
            )
            connection.commit()
        return _SqliteWriter(connection, digest)

    def iter_epochs(self, digest: str) -> Iterator[object]:
        from repro.serialization import from_jsonable

        if not os.path.exists(self.path):
            return
        connection = self._connect()
        try:
            rows = connection.execute(
                "SELECT payload FROM epochs WHERE digest = ?"
                " ORDER BY epoch",
                (digest,),
            )
            for (payload,) in rows:
                yield from_jsonable(json.loads(payload))
        finally:
            connection.close()

    def load(self, digest: str) -> List[object]:
        return list(self.iter_epochs(digest))

    def count(self, digest: str) -> int:
        if not os.path.exists(self.path):
            return 0
        connection = self._connect()
        try:
            [(count,)] = connection.execute(
                "SELECT COUNT(*) FROM epochs WHERE digest = ?", (digest,)
            )
            return int(count)
        finally:
            connection.close()


__all__ = [
    "JsonlStore",
    "MemoryStore",
    "ResultStore",
    "ResultWriter",
    "SqliteStore",
    "build_store",
    "count_epochs",
    "load_epochs",
    "open_writer",
    "register_store",
    "store_names",
    "validate_store_spec",
]
