"""Session thread-safety and the bounded in-memory result cache.

The service shares one :class:`~repro.api.Session` across HTTP worker
threads, so the session's memory cache must be safe under concurrent
hammering and bounded (an unbounded digest->result map is a slow leak in
a long-running server). These suites pin down:

* LRU semantics: capacity is enforced, evictions hit the oldest entry,
  re-use refreshes recency, and the hit/miss/eviction counters add up;
* determinism under concurrency: 8 threads hammering one session — same
  config or distinct configs — all observe digest-identical reports.
"""

from __future__ import annotations

import threading

import pytest

from repro import serialization
from repro.api import RunConfig, Session, config_digest
from repro.errors import ConfigurationError


def _config(**overrides) -> RunConfig:
    merged = dict(
        scheme="TAG",
        failure="global:0.2",
        num_sensors=12,
        converge_epochs=0,
        reading="uniform:10:100:0",
        query="SELECT count",
        epochs=3,
    )
    merged.update(overrides)
    return RunConfig(**merged)


class TestBoundedCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Session(memory_cache=0)

    def test_lru_evicts_oldest(self):
        session = Session(memory_cache=2)
        configs = [_config(seed=seed) for seed in (1, 2, 3)]
        for config in configs:
            session.run(config)
        stats = session.cache_stats()
        assert stats["size"] == 2
        assert stats["capacity"] == 2
        assert stats["evictions"] == 1
        assert stats["misses"] == 3
        assert stats["hits"] == 0
        # seed=1 was evicted: running it again is a miss (and evicts
        # seed=2, the now-oldest entry); seed=3 is still cached.
        session.run(configs[0])
        assert session.cache_stats()["misses"] == 4
        session.run(configs[2])
        assert session.cache_stats()["hits"] == 1

    def test_reuse_refreshes_recency(self):
        session = Session(memory_cache=2)
        a, b, c = (_config(seed=seed) for seed in (1, 2, 3))
        session.run(a)
        session.run(b)
        session.run(a)  # refresh a: b becomes the eviction candidate
        session.run(c)  # evicts b
        stats = session.cache_stats()
        assert stats["evictions"] == 1
        session.run(a)
        assert session.cache_stats()["hits"] == 2  # a survived
        session.run(b)
        assert session.cache_stats()["misses"] == 4  # b did not

    def test_cached_hit_is_the_same_report(self):
        session = Session(memory_cache=4)
        config = _config()
        first = session.run(config)
        second = session.run(config)
        assert serialization.dumps(first) == serialization.dumps(second)
        assert session.cache_stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "size": 1,
            "capacity": 4,
        }


class TestConcurrentHammer:
    def _hammer(self, session, configs, rounds=2, threads=8):
        fingerprints = [None] * (threads * rounds)
        errors = []

        def worker(index):
            try:
                for round_no in range(rounds):
                    config = configs[index % len(configs)]
                    report = session.run(config)
                    fingerprints[index * rounds + round_no] = (
                        config_digest(config),
                        serialization.dumps(report),
                    )
            except Exception as error:  # surfaced below, with context
                errors.append(error)

        workers = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=300)
        assert not errors, errors
        assert all(entry is not None for entry in fingerprints)
        return fingerprints

    def test_same_config_from_eight_threads_is_digest_identical(self):
        session = Session(memory_cache=8)
        config = _config()
        fingerprints = self._hammer(session, [config])
        assert len({fp for _, fp in fingerprints}) == 1
        # Serial ground truth from a fresh session.
        serial = serialization.dumps(Session().run(config))
        assert fingerprints[0][1] == serial
        stats = session.cache_stats()
        assert stats["hits"] + stats["misses"] == len(fingerprints)
        assert stats["size"] == 1
        assert stats["evictions"] == 0

    def test_distinct_configs_from_eight_threads(self):
        session = Session(memory_cache=8)
        configs = [_config(seed=seed) for seed in (1, 2, 3, 4)]
        fingerprints = self._hammer(session, configs)
        by_digest = {}
        for digest, fingerprint in fingerprints:
            by_digest.setdefault(digest, set()).add(fingerprint)
        assert len(by_digest) == len(configs)
        for digest, variants in by_digest.items():
            assert len(variants) == 1, f"non-deterministic result {digest}"
        # Each digest's result matches a serial run of that config.
        serial = {
            config_digest(config): serialization.dumps(Session().run(config))
            for config in configs
        }
        for digest, variants in by_digest.items():
            assert variants == {serial[digest]}
        stats = session.cache_stats()
        assert stats["hits"] + stats["misses"] == len(fingerprints)
        assert stats["size"] == len(configs)
