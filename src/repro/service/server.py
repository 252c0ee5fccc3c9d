"""The HTTP front end: stdlib-only aggregation-as-a-service.

Endpoints (all JSON, the streaming one NDJSON):

* ``POST /queries`` — subscribe. Body: a ``query-submit`` payload, a full
  serialized ``run-config`` (scenario must match the server's), or a bare
  ``SELECT`` one-liner. The response is a **chunked NDJSON stream**: one
  ``subscribed`` header line (admission verdict, planned parts), then one
  ``epoch-record`` line per epoch, then a ``closed`` line when the epoch
  limit is reached or the server shuts down. Disconnecting mid-stream
  evicts the subscription's queries at the next block boundary.
* ``POST /run`` — one-shot execution of a serialized ``run-config``
  through the server's shared, thread-safe
  :class:`~repro.api.Session` (bounded LRU keyed by ``config_digest`` —
  identical configs fan out of the cache without re-execution). Response:
  a serialized ``run-report``.
* ``GET /stats`` — engine/admission/planner counters plus the session
  cache's hit/miss/eviction counters.
* ``GET /health`` — liveness.
* ``POST /shutdown`` — graceful: drains the in-flight block, writes the
  final checkpoint (when configured), answers with its path, then stops.

Error mapping: malformed bodies → 400, scenario mismatch → 409, admission
(over-budget) → 413, unknown paths → 404, shutting down → 503.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.api import RunConfig, Session
from repro.errors import ConfigurationError, ReproError
from repro.service.admission import AdmissionError
from repro.service.engine import AggregationService, ScenarioMismatch
from repro.service.streams import parse_submission


class _Handler(BaseHTTPRequestHandler):
    """One request; streaming subscribers hold their worker thread."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"

    # The ThreadingHTTPServer subclass carries the AggregationServer.
    @property
    def service(self) -> "AggregationServer":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.service.verbose:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message, "status": status})

    def _begin_ndjson(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode())
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _end_chunks(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        if self.path == "/health":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/stats":
            self._send_json(200, self.service.stats())
        else:
            self._send_error_json(404, f"no such path: {self.path}")

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/queries":
            self._post_queries()
        elif self.path == "/run":
            self._post_run()
        elif self.path == "/shutdown":
            self._post_shutdown()
        else:
            self._send_error_json(404, f"no such path: {self.path}")

    def _post_queries(self) -> None:
        try:
            submit, config = parse_submission(self._body())
            subscriber = self.service.engine.subscribe(submit, config)
        except AdmissionError as error:
            self._send_error_json(413, str(error))
            return
        except ScenarioMismatch as error:
            self._send_error_json(409, str(error))
            return
        except ReproError as error:
            self._send_error_json(400, str(error))
            return
        engine = self.service.engine
        try:
            self._begin_ndjson()
            header = {
                "type": "subscribed",
                "id": subscriber.id,
                "queries": {
                    pq.name: list(pq.keys) for pq in subscriber.planned
                },
                "admission": subscriber.verdict.to_jsonable(),
                "epochs": subscriber.limit,
            }
            self._write_chunk(
                (json.dumps(header, sort_keys=True) + "\n").encode()
            )
            for item in subscriber.records(timeout=self.service.stream_timeout):
                if isinstance(item, str):
                    closing = {"type": "closed", "reason": item}
                    self._write_chunk(
                        (json.dumps(closing, sort_keys=True) + "\n").encode()
                    )
                    break
                self._write_chunk(item.ndjson())
            self._end_chunks()
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # Client went away: evict at the next block boundary.
            self.close_connection = True
        finally:
            engine.release(subscriber)

    def _post_run(self) -> None:
        from repro.serialization import from_jsonable, to_jsonable

        try:
            payload = json.loads(self._body().decode("utf-8"))
            config = from_jsonable(payload)
            if not isinstance(config, RunConfig):
                raise ConfigurationError(
                    "POST /run expects a serialized run-config"
                )
            report = self.service.session.run(config)
        except ReproError as error:
            self._send_error_json(400, str(error))
            return
        except (ValueError, UnicodeDecodeError) as error:
            self._send_error_json(400, f"request body is not JSON: {error}")
            return
        self._send_json(200, to_jsonable(report))

    def _post_shutdown(self) -> None:
        checkpoint = self.service.engine.shutdown()
        self._send_json(200, {"ok": True, "checkpoint": checkpoint})
        # Stop accepting from a helper thread: shutdown() blocks until
        # serve_forever returns, and we *are* a serve_forever worker.
        threading.Thread(
            target=self.service.stop_http, daemon=True
        ).start()


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def handle_error(self, request, client_address) -> None:
        """A client that went away is routine, not a traceback.

        ``socketserver`` dumps every handler exception to stderr; a peer
        resetting an idle keep-alive connection surfaces as
        ``ConnectionResetError`` out of ``handle_one_request``'s
        ``rfile.readline``. Those (and the write-side / timeout twins) are
        dropped quietly; anything else keeps the default report.
        """
        error = sys.exc_info()[1]
        if isinstance(
            error, (ConnectionResetError, BrokenPipeError, TimeoutError)
        ):
            return
        super().handle_error(request, client_address)


class AggregationServer:
    """The deployable unit: engine + session cache + HTTP listener.

    >>> from repro.api import RunConfig
    >>> from repro.service import AggregationServer
    >>> server = AggregationServer(
    ...     RunConfig(scheme="TAG", failure="none", num_sensors=40,
    ...               converge_epochs=0, reading="uniform:10:100:0"))
    >>> host, port = server.start()
    >>> server.close()
    """

    def __init__(
        self,
        config: RunConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        budget_words: int = 256,
        block_epochs: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        cache_entries: int = 128,
        pace_seconds: float = 0.0,
        stream_timeout: Optional[float] = 300.0,
        resume: bool = False,
        verbose: bool = False,
    ) -> None:
        self.engine = AggregationService(
            config,
            budget_words=budget_words,
            block_epochs=block_epochs,
            checkpoint_dir=checkpoint_dir,
            pace_seconds=pace_seconds,
            resume=resume,
        )
        #: One shared thread-safe session with a bounded result LRU: the
        #: fan-out path for identical one-shot configs.
        self.session = Session(memory_cache=cache_entries)
        self.stream_timeout = stream_timeout
        self.verbose = verbose
        self._httpd = _Server((host, port), _Handler)
        self._httpd.service = self  # type: ignore[attr-defined]
        self._http_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def stats(self) -> Dict[str, object]:
        stats = self.engine.stats()
        stats["session_cache"] = self.session.cache_stats()
        stats["type"] = "service-stats"
        return stats

    def start(self, start_engine: bool = True) -> Tuple[str, int]:
        """Start the engine loop and the HTTP listener; returns (host, port).

        ``start_engine=False`` brings up only the HTTP listener:
        subscriptions queue as pending and the first block runs when
        ``self.engine.start()`` is called — the deterministic way to land
        several clients in the same admission batch (tests, warm starts).
        """
        if start_engine:
            self.engine.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Foreground mode (the CLI's ``repro serve``)."""
        self.engine.start()
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.engine.shutdown()
            self._httpd.server_close()

    def stop_http(self) -> None:
        """Stop accepting HTTP (engine shutdown is separate)."""
        self._httpd.shutdown()

    def close(self) -> Optional[str]:
        """Graceful stop: drain the engine, checkpoint, stop HTTP.

        Returns the checkpoint path when one was written.
        """
        checkpoint = self.engine.shutdown()
        self._httpd.shutdown()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
        self._httpd.server_close()
        return checkpoint


__all__ = ["AggregationServer"]
