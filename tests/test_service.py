"""E2E suite for the aggregation service: real HTTP against a live server.

The load-bearing assertions, in paper terms:

* ``TestSharedPass`` — two subscribed clients (``avg`` and ``count``) are
  served from **one** shared in-network pass: their combined billed words
  are strictly below the sum of the two standalone one-shot runs, and the
  ``avg`` client's estimates are byte-identical to its standalone run
  (the planner serves ``avg`` as a ratio of shared ``sum``/``count``
  slots, an exact decomposition — not an approximation).
* ``TestRunCache`` — identical ``POST /run`` configs fan out of the
  session's bounded LRU (one execution, then hits).
* ``TestRejections`` — over-budget submissions get 413, malformed bodies
  and unknown aggregates 400, run-configs for a different scenario 409.
* ``TestEviction`` — a client that disconnects mid-stream has its queries
  evicted at the next block boundary (slots drop out of ``GET /stats``).
* ``TestShutdown`` — ``POST /shutdown`` drains the in-flight block and
  writes the final checkpoint.
"""

from __future__ import annotations

import json
import http.client
import socket
import struct
import threading
import time

import pytest

from repro.api import RunConfig, Session
from repro.serialization import to_jsonable
from repro.service import AggregationServer

#: The served scenario: small and non-adaptive for speed. Non-adaptive
#: schemes default to 10-epoch blocks.
SCENARIO = dict(
    scheme="TAG",
    failure="global:0.2",
    num_sensors=24,
    converge_epochs=0,
    reading="uniform:10:100:0",
    epochs=0,
)
BLOCK = 10


def _config(**overrides) -> RunConfig:
    merged = dict(SCENARIO)
    merged.update(overrides)
    return RunConfig(**merged)


def _post(port, path, body, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    if isinstance(body, (dict, list)):
        body = json.dumps(body)
    conn.request("POST", path, body=body)
    return conn, conn.getresponse()


def _get_json(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", path)
    payload = json.loads(conn.getresponse().read())
    conn.close()
    return payload


def _drain_stream(response):
    """All NDJSON lines of a subscription stream, parsed."""
    lines = []
    while True:
        line = response.readline()
        if not line:
            break
        lines.append(json.loads(line))
        if lines[-1].get("type") == "closed":
            break
    return lines


def _subscribe(port, queries, epochs):
    body = {"type": "query-submit", "version": 1, "queries": queries}
    if epochs is not None:
        body["epochs"] = epochs
    return _post(port, "/queries", body)


@pytest.fixture(scope="module")
def server():
    server = AggregationServer(_config(), checkpoint_dir=None)
    server.start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def port(server):
    return server.address[1]


class TestBasics:
    def test_health(self, port):
        assert _get_json(port, "/health") == {"status": "ok"}

    def test_unknown_path_404(self, port):
        conn, response = _post(port, "/nope", b"")
        assert response.status == 404
        conn.close()

    def test_stats_shape(self, port):
        stats = _get_json(port, "/stats")
        assert stats["type"] == "service-stats"
        assert set(stats) >= {"engine", "admission", "planner", "session_cache"}
        assert stats["session_cache"]["capacity"] == 128

    def test_select_one_liner(self, port):
        conn, response = _post(port, "/queries", b"SELECT count LIMIT 3")
        # LIMIT is not query syntax here; a plain SELECT with an epoch
        # limit needs the query-submit form — this must 400, not hang.
        assert response.status == 400
        conn.close()
        conn, response = _subscribe(
            port, [{"name": "c", "query": "SELECT count"}], epochs=2
        )
        lines = _drain_stream(response)
        conn.close()
        assert lines[0]["type"] == "subscribed"
        assert lines[0]["queries"] == {"c": ["SELECT count"]}
        records = [l for l in lines if l["type"] == "epoch-record"]
        assert len(records) == 2
        assert lines[-1] == {"type": "closed", "reason": "complete"}
        for record in records:
            answer = record["results"]["c"]
            assert answer["truth"] == float(SCENARIO["num_sensors"])


class TestSharedPass:
    """The acceptance scenario: N concurrent clients, one network pass."""

    def test_two_clients_bill_below_standalone_sum(self):
        config = _config()
        # Standalone baselines through the one-shot API, same scenario.
        session = Session()
        standalone = {}
        for name, query in (("avg", "SELECT avg"), ("count", "SELECT count")):
            report = session.run(config.replace(query=query, epochs=BLOCK))
            standalone[name] = report.result
        standalone_words = sum(
            epoch.log.words_sent
            for result in standalone.values()
            for epoch in result.epochs
        )

        # Bring up HTTP only; start the engine once both clients are
        # pending, so both deterministically join the first block.
        server = AggregationServer(config)
        port = server.start(start_engine=False)[1]
        try:
            streams = {}

            def subscribe(name, query):
                conn, response = _subscribe(
                    port, [{"name": name, "query": query}], epochs=BLOCK
                )
                response.readline()  # the "subscribed" header: registered
                streams[name] = (conn, response)

            threads = [
                threading.Thread(target=subscribe, args=("avg", "SELECT avg")),
                threading.Thread(
                    target=subscribe, args=("count", "SELECT count")
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert _get_json(port, "/stats")["engine"]["subscribers"] == 2
            server.engine.start()

            records = {}
            for name, (conn, response) in streams.items():
                lines = _drain_stream(response)
                conn.close()
                assert lines[-1]["reason"] == "complete"
                records[name] = [
                    l for l in lines if l["type"] == "epoch-record"
                ]
            stats = _get_json(port, "/stats")
        finally:
            server.close()

        for name in records:
            assert len(records[name]) == BLOCK

        # One shared pass: both clients were billed the same per-epoch
        # words, so the combined bill is one client's worth of epochs —
        # strictly below the two standalone runs added together.
        avg_words = [r["words"] for r in records["avg"]]
        count_words = [r["words"] for r in records["count"]]
        assert avg_words == count_words
        combined_words = sum(avg_words)
        assert combined_words < standalone_words

        # Exactness: the avg client's estimates are byte-identical to the
        # standalone avg run (shared sum/count slots, exact ratio).
        service_avg = [r["results"]["avg"]["estimate"] for r in records["avg"]]
        assert service_avg == standalone["avg"].estimates
        service_count = [
            r["results"]["count"]["estimate"] for r in records["count"]
        ]
        assert service_count == standalone["count"].estimates

        # The count client shared avg's count slot: only two slots ever
        # existed (sum, count) and one acquire landed on a live slot.
        assert stats["planner"]["shared_acquires"] >= 1
        assert stats["admission"]["admitted"] == 2


class TestRunCache:
    def test_identical_configs_fan_out_of_the_cache(self, server, port):
        config = _config(query="SELECT sum", epochs=3)
        payload = to_jsonable(config)
        reports = []
        for _ in range(3):
            conn, response = _post(port, "/run", payload)
            assert response.status == 200
            reports.append(json.loads(response.read()))
            conn.close()
        assert reports[0] == reports[1] == reports[2]
        cache = _get_json(port, "/stats")["session_cache"]
        assert cache["hits"] >= 2
        assert cache["misses"] >= 1
        assert cache["size"] >= 1

    def test_run_rejects_non_config_payloads(self, port):
        conn, response = _post(port, "/run", {"type": "query-submit"})
        assert response.status == 400
        conn.close()


class TestRejections:
    def test_over_budget_is_413(self):
        server = AggregationServer(_config(), budget_words=1)
        port = server.start()[1]
        try:
            conn, response = _subscribe(
                port, [{"name": "s", "query": "SELECT sum"}], epochs=1
            )
            assert response.status == 413
            assert "budget" in json.loads(response.read())["error"]
            conn.close()
            stats = _get_json(port, "/stats")
            assert stats["admission"]["rejected"] == 1
            assert stats["engine"]["subscribers"] == 0
        finally:
            server.close()

    def test_malformed_body_is_400(self, port):
        conn, response = _post(port, "/queries", b"{not json")
        assert response.status == 400
        conn.close()

    def test_unknown_aggregate_is_400(self, port):
        conn, response = _subscribe(
            port, [{"name": "x", "aggregate": "mode"}], epochs=1
        )
        assert response.status == 400
        conn.close()

    def test_scenario_mismatch_is_409(self, port):
        other = _config(num_sensors=99, query="SELECT count", epochs=2)
        conn, response = _post(port, "/queries", to_jsonable(other))
        assert response.status == 409
        assert "num_sensors" in json.loads(response.read())["error"]
        conn.close()

    def test_matching_run_config_subscribes(self, port):
        mine = _config(query="SELECT count", epochs=2)
        conn, response = _post(port, "/queries", to_jsonable(mine))
        assert response.status == 200
        lines = _drain_stream(response)
        conn.close()
        assert lines[-1] == {"type": "closed", "reason": "complete"}
        assert len([l for l in lines if l["type"] == "epoch-record"]) == 2


class TestContentLength:
    """A ``Content-Length`` that cannot frame a body is a 400 on both body
    routes — never a worker traceback or a read that waits for the client
    to hang up — and the server keeps answering."""

    @pytest.mark.parametrize("length", ["abc", "-1"])
    @pytest.mark.parametrize("path", ["/queries", "/run"])
    def test_bad_content_length_is_400(self, port, path, length, capsys):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.putrequest("POST", path)
        conn.putheader("Content-Length", length)
        conn.endheaders(b"{}")
        response = conn.getresponse()
        assert response.status == 400
        error = json.loads(response.read())["error"]
        conn.close()
        assert "Content-Length" in error and repr(length) in error
        assert "Traceback" not in capsys.readouterr().err
        assert _get_json(port, "/health") == {"status": "ok"}


class TestEviction:
    def test_disconnect_evicts_at_next_boundary(self, server, port):
        conn, response = _subscribe(
            port, [{"name": "q", "query": "SELECT quantiles"}], epochs=None
        )
        assert response.status == 200
        lines = [json.loads(response.readline()) for _ in range(3)]
        assert lines[0]["type"] == "subscribed"
        assert lines[1]["type"] == "epoch-record"
        conn.close()  # mid-stream: the server must notice and evict

        deadline = time.time() + 60
        while time.time() < deadline:
            stats = _get_json(port, "/stats")
            gone = stats["engine"]["subscribers"] == 0 and not any(
                "quantiles" in key for key in stats["planner"]["keys"]
            )
            if gone:
                break
            time.sleep(0.2)
        assert gone, f"stale subscription after disconnect: {stats}"


class TestClientResets:
    def test_reset_keepalive_connection_is_not_a_traceback(
        self, server, port, monkeypatch, capsys
    ):
        """A client that RSTs its idle keep-alive connection is routine:
        the worker's ``rfile.readline`` raises ``ConnectionResetError``,
        which ``socketserver`` would dump to stderr as a traceback."""
        httpd = type(server._httpd)
        handled = threading.Event()
        handle_error = httpd.handle_error

        def observed(self, request, client_address):
            try:
                handle_error(self, request, client_address)
            finally:
                handled.set()

        monkeypatch.setattr(httpd, "handle_error", observed)
        client = socket.create_connection(("127.0.0.1", port), timeout=30)
        client.sendall(b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
        response = b""
        while not response.endswith(b'{"status": "ok"}\n'):
            chunk = client.recv(4096)
            assert chunk, response
            response += chunk
        assert response.startswith(b"HTTP/1.1 200")
        # SO_LINGER with a zero timeout: close() sends RST, not FIN.
        client.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        client.close()
        assert handled.wait(timeout=30), "the worker never saw the reset"
        assert "Traceback" not in capsys.readouterr().err
        assert _get_json(port, "/health") == {"status": "ok"}

    def test_other_handler_errors_keep_the_default_report(
        self, server, port, monkeypatch, capsys
    ):
        def broken(self):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(type(server), "stats", broken)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/stats")
        with pytest.raises((http.client.HTTPException, ConnectionError)):
            conn.getresponse()
        conn.close()
        deadline = time.time() + 30
        captured = ""
        while "handler bug" not in captured and time.time() < deadline:
            time.sleep(0.05)
            captured += capsys.readouterr().err
        assert "Traceback" in captured and "handler bug" in captured


class TestBoundedQueues:
    def test_push_drops_oldest_when_full(self):
        from repro.service.streams import EpochRecord, Subscriber

        subscriber = Subscriber(1, [], None, max_queue=3)
        for epoch in range(5):
            subscriber.push(EpochRecord(epoch=epoch, results={}, words=1))
        assert subscriber.delivered == 5
        assert subscriber.dropped == 2
        subscriber.close("complete")
        # The sentinel never blocks: it evicts one more from the full queue.
        assert subscriber.dropped == 3
        items = list(subscriber.records(timeout=0.1))
        assert [record.epoch for record in items[:-1]] == [3, 4]
        assert items[-1] == "complete"

    def test_drained_queue_closes_without_dropping(self):
        from repro.service.streams import EpochRecord, Subscriber

        subscriber = Subscriber(2, [], None, max_queue=3)
        subscriber.push(EpochRecord(epoch=0, results={}, words=1))
        subscriber.close("complete")
        assert subscriber.dropped == 0

    def test_dropped_records_surface_on_stats(self, tmp_path):
        from repro.service.engine import AggregationService
        from repro.service.streams import parse_submission

        engine = AggregationService(_config(), block_epochs=BLOCK)
        submit, _ = parse_submission(b"SELECT SUM")
        subscriber = engine.subscribe(submit)
        subscriber._queue.maxsize = 3  # shrink the bound for the test
        for _ in range(2):
            engine.run_block()
        live = engine.stats()["engine"]["records_dropped"]
        assert live == subscriber.dropped == 2 * BLOCK - 3
        engine.release(subscriber)
        # Released subscribers fold into the settled counter.
        assert engine.stats()["engine"]["records_dropped"] == live
        engine.shutdown()


class TestResumeAndStorage:
    def _engine(self, tmp_path, **kwargs):
        from repro.service.engine import AggregationService

        config = _config(storage=f"jsonl:{tmp_path / 'spill'}")
        return config, AggregationService(
            config, checkpoint_dir=str(tmp_path / "ckpt"), **kwargs
        )

    def test_resume_continues_cursor_energy_and_store(self, tmp_path):
        from repro.api import config_digest
        from repro.service.streams import parse_submission
        from repro.storage import count_epochs

        config, engine = self._engine(tmp_path)
        submit, _ = parse_submission(b"SELECT SUM")
        engine.subscribe(submit)
        ran = engine.run_block() + engine.run_block()
        stats = engine.stats()
        assert stats["storage"]["records"] == ran
        assert engine.shutdown() is not None
        cursor = stats["engine"]["cursor"]
        words = stats["engine"]["total_words"]
        energy_uj = engine._energy.total_uj
        digest = config_digest(config)
        assert count_epochs(config.storage, digest) == ran

        _, resumed = self._engine(tmp_path, resume=True)
        stats2 = resumed.stats()
        assert stats2["engine"]["cursor"] == cursor
        assert stats2["engine"]["resumed_from"] == cursor
        assert stats2["engine"]["total_words"] == words
        assert resumed._energy.total_uj == pytest.approx(energy_uj)
        resumed.subscribe(parse_submission(b"SELECT SUM")[0])
        more = resumed.run_block()
        resumed.shutdown()
        # The resumed run appended after the spilled records, not over them.
        assert count_epochs(config.storage, digest) == ran + more

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.service.engine import AggregationService
        from repro.service.streams import parse_submission

        config, engine = self._engine(tmp_path)
        engine.subscribe(parse_submission(b"SELECT SUM")[0])
        engine.run_block()
        engine.shutdown()
        other = _config(num_sensors=30)
        with pytest.raises(ConfigurationError, match="different service"):
            AggregationService(
                other, checkpoint_dir=str(tmp_path / "ckpt"), resume=True
            )

    def test_resume_without_checkpoint_is_fresh(self, tmp_path):
        config, engine = self._engine(tmp_path / "fresh", resume=True)
        stats = engine.stats()
        assert stats["engine"]["resumed_from"] is None
        assert stats["engine"]["cursor"] == config.start_epoch
        engine.shutdown()


class TestShutdown:
    def test_shutdown_writes_checkpoint(self, tmp_path):
        server = AggregationServer(
            _config(), checkpoint_dir=str(tmp_path / "ckpt")
        )
        port = server.start()[1]
        conn, response = _subscribe(
            port, [{"name": "c", "aggregate": "count"}], epochs=2
        )
        lines = _drain_stream(response)
        conn.close()
        assert lines[-1]["reason"] == "complete"

        conn, response = _post(port, "/shutdown", b"")
        payload = json.loads(response.read())
        conn.close()
        assert payload["ok"] is True
        checkpoint = payload["checkpoint"]
        assert checkpoint is not None
        with open(checkpoint) as handle:
            state = json.load(handle)
        assert state  # a real, parseable checkpoint
        server.close()
