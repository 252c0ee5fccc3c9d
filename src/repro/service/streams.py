"""The service's wire records and per-subscriber result streams.

Two payloads cross the HTTP boundary as first-class serialization citizens
(``register_codec``, like the run-config/run-report codecs):

* :class:`QuerySubmit` — what a client POSTs to ``/queries``: named query
  specs (the same ``{name, aggregate | query}`` objects a ``RunConfig``
  workload holds) plus an optional epoch limit. Clients may equally POST a
  full serialized ``RunConfig`` (its queries are extracted, its scenario
  checked against the server's) or a bare ``SELECT`` one-liner.
* :class:`EpochRecord` — one NDJSON line per epoch per subscriber: the
  subscriber's own per-query estimates and loss-free truths beside the
  *shared* word bill of that epoch's messages (the portfolio paid for one
  packet train, so the bill is the portfolio's).

:class:`Subscriber` is the streaming seam between the engine thread and an
HTTP worker: the engine pushes records into a thread-safe queue at each
recorded epoch; the worker drains it into a chunked response. A sentinel
closes the stream (epoch limit reached or service shutdown); a dead socket
surfaces as a write error in the worker, which releases the subscription —
the engine evicts its slots at the next block boundary.
"""

from __future__ import annotations

import json
import queue
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError

#: Wire schema version of the service records.
SERVICE_SCHEMA_VERSION = 1

#: Stream-closing sentinel reasons.
CLOSE_COMPLETE = "complete"
CLOSE_SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class QueryAnswer:
    """One query's answer at one epoch: the estimate and the truth."""

    estimate: float
    truth: float

    def to_jsonable(self) -> Dict[str, float]:
        return {"estimate": self.estimate, "truth": self.truth}


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's streamed results for one subscriber.

    ``words`` is the epoch's combined word bill across the whole running
    workload — the shared-channel economics made visible per epoch.
    """

    epoch: int
    results: Dict[str, QueryAnswer]
    words: int

    def ndjson(self) -> bytes:
        from repro.serialization import to_jsonable

        return (json.dumps(to_jsonable(self), sort_keys=True) + "\n").encode()


@dataclass(frozen=True)
class QuerySubmit:
    """A subscription request: named query specs plus an epoch limit.

    ``epochs=None`` subscribes until the client disconnects.
    """

    queries: Tuple[object, ...]  # QuerySpec, validated by _normalize_queries
    epochs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epochs is not None and self.epochs < 1:
            raise ConfigurationError(
                "a subscription's 'epochs' must be a positive count or null"
            )


def _encode_epoch_record(record: EpochRecord) -> Dict[str, object]:
    return {
        "epoch": record.epoch,
        "results": {
            name: answer.to_jsonable()
            for name, answer in record.results.items()
        },
        "words": record.words,
        "version": SERVICE_SCHEMA_VERSION,
    }


def _decode_epoch_record(data: Dict[str, object]) -> EpochRecord:
    version = data.get("version", 0)
    if version > SERVICE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"epoch-record version {version} is newer than this reader "
            f"({SERVICE_SCHEMA_VERSION})"
        )
    try:
        results = {
            str(name): QueryAnswer(
                estimate=float(answer["estimate"]),
                truth=float(answer["truth"]),
            )
            for name, answer in dict(data["results"]).items()
        }
        return EpochRecord(
            epoch=int(data["epoch"]),
            results=results,
            words=int(data["words"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(
            f"malformed epoch-record payload: {error}"
        ) from None


def _encode_query_submit(submit: QuerySubmit) -> Dict[str, object]:
    return {
        "queries": [spec.to_jsonable() for spec in submit.queries],
        "epochs": submit.epochs,
        "version": SERVICE_SCHEMA_VERSION,
    }


def _decode_query_submit(data: Dict[str, object]) -> QuerySubmit:
    from repro.api import _normalize_queries

    version = data.get("version", 0)
    if version > SERVICE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"query-submit version {version} is newer than this reader "
            f"({SERVICE_SCHEMA_VERSION})"
        )
    unknown = sorted(set(data) - {"type", "version", "queries", "epochs"})
    if unknown:
        raise ConfigurationError(
            "query-submit has unknown keys: "
            + ", ".join(repr(key) for key in unknown)
            + "; expected keys: 'queries', 'epochs'"
        )
    if "queries" not in data:
        raise ConfigurationError("query-submit needs a 'queries' list")
    epochs = data.get("epochs")
    if epochs is not None and not isinstance(epochs, int):
        raise ConfigurationError(
            f"'epochs' expects an integer or null, got {epochs!r}"
        )
    return QuerySubmit(
        queries=_normalize_queries(data["queries"]), epochs=epochs
    )


def _register_service_codecs() -> None:
    from repro.serialization import register_codec

    register_codec(
        EpochRecord, "epoch-record", _encode_epoch_record,
        _decode_epoch_record,
    )
    register_codec(
        QuerySubmit, "query-submit", _encode_query_submit,
        _decode_query_submit,
    )


_register_service_codecs()


def parse_submission(body: bytes) -> Tuple[QuerySubmit, Optional[object]]:
    """Decode a ``/queries`` request body into a :class:`QuerySubmit`.

    Three accepted shapes:

    * a ``query-submit`` JSON payload (the canonical form);
    * a serialized ``run-config`` — its queries become the submission, its
      ``epochs`` the subscription limit, and the config itself is returned
      so the server can check the scenario matches its own;
    * a bare ``SELECT`` one-liner (text), each target one query.

    Returns ``(submit, config-or-None)``; malformed bodies raise
    :class:`~repro.errors.ConfigurationError` (the server's 400).
    """
    from repro.api import RunConfig, select_specs

    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigurationError("request body is not UTF-8") from None
    stripped = text.strip()
    if not stripped:
        raise ConfigurationError("empty request body")
    if stripped.upper().startswith("SELECT"):
        return QuerySubmit(queries=select_specs(stripped)), None
    try:
        data = json.loads(stripped)
    except ValueError as error:
        raise ConfigurationError(f"request body is not JSON: {error}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            "expected a JSON object (query-submit or run-config) "
            "or a SELECT one-liner"
        )
    tag = data.get("type")
    if tag == "query-submit":
        return _decode_query_submit(data), None
    if tag == "run-config":
        config = RunConfig.from_jsonable(data)
        submit = QuerySubmit(queries=config.query_specs, epochs=config.epochs)
        return submit, config
    raise ConfigurationError(
        f"unsupported payload type {tag!r}; POST a 'query-submit', a "
        "'run-config', or a SELECT one-liner"
    )


#: Default bound of a subscriber's record queue. A consumer that falls
#: this many epochs behind starts losing its *oldest* queued records.
MAX_QUEUE_RECORDS = 1024


class Subscriber:
    """One client's live subscription: planned queries plus a record queue.

    The engine thread produces (``push``/``close``); exactly one HTTP
    worker consumes (``records``). The queue is **bounded**
    (``max_queue`` records, default :data:`MAX_QUEUE_RECORDS`): a slow
    consumer's backlog lives here rather than stalling the simulator, but
    it cannot grow without bound — once full, ``push`` drops the oldest
    queued record and counts it in ``dropped`` (surfaced on the service's
    ``GET /stats`` as ``records_dropped``). The engine thread is the sole
    producer, so the drop-oldest dance never races another writer.
    """

    def __init__(
        self,
        subscriber_id: int,
        planned,  # Sequence[PlannedQuery]
        epochs: Optional[int],
        max_queue: int = MAX_QUEUE_RECORDS,
    ) -> None:
        if max_queue < 1:
            raise ConfigurationError(
                "a subscriber's queue bound must be at least 1 record"
            )
        self.id = subscriber_id
        self.planned = tuple(planned)
        self.limit = epochs
        self.delivered = 0
        self.dropped = 0
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=max_queue)
        self._closed = False

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(pq.name for pq in self.planned)

    def _put_drop_oldest(self, item: object) -> None:
        """Enqueue ``item``, evicting the oldest record when full.

        Single-producer only (the engine thread): between the failed
        ``put_nowait`` and the compensating ``get_nowait`` the queue can
        only *shrink* (the consumer drains), so the loop terminates.
        """
        while True:
            try:
                self._queue.put_nowait(item)
                return
            except queue.Full:
                try:
                    self._queue.get_nowait()
                    self.dropped += 1
                except queue.Empty:
                    pass

    def push(self, record: EpochRecord) -> None:
        self._put_drop_oldest(record)
        self.delivered += 1

    def close(self, reason: str) -> None:
        """Terminate the stream (idempotent); the consumer sees ``reason``.

        Never blocks: a full queue sheds its oldest record so the sentinel
        always lands — shutdown must not wait on a stalled consumer.
        """
        if not self._closed:
            self._closed = True
            self._put_drop_oldest(reason)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def done(self) -> bool:
        """Whether the epoch limit has been reached."""
        return self.limit is not None and self.delivered >= self.limit

    def records(self, timeout: Optional[float] = None) -> Iterator[object]:
        """Yield :class:`EpochRecord` items, ending with a close reason.

        With ``timeout`` set, a silent engine for that long ends the
        stream with a ``"timeout"`` reason instead of blocking forever.
        """
        while True:
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                yield "timeout"
                return
            yield item
            if isinstance(item, str):
                return


__all__ = [
    "CLOSE_COMPLETE",
    "CLOSE_SHUTDOWN",
    "MAX_QUEUE_RECORDS",
    "EpochRecord",
    "QueryAnswer",
    "QuerySubmit",
    "SERVICE_SCHEMA_VERSION",
    "Subscriber",
    "parse_submission",
]
