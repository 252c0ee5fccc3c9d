"""JSON round-trips for sketches, summaries, and experiment results.

Deployments checkpoint sketch state (a base station persisting synopses
across reboots), ship partial results to other tools, and archive
experiment runs for later comparison. Every wire object in the library gets
a stable JSON form here:

======================  =======================================
object                  tag
======================  =======================================
FMSketch                ``fm``
KMVSketch               ``kmv``
Summary (freq. items)   ``summary``
FrequentItemsSynopsis   ``fi-synopsis``
GKSummary (quantiles)   ``gk``
UniformSample           ``uniform-sample``
QuantileSynopsis        ``quantile-synopsis``
TransmissionLog         ``transmission-log``
EnergyReport            ``energy-report``
EpochResult             ``epoch-result``
RunResult               ``run-result``
RunConfig               ``run-config``
RunReport               ``run-report``
======================  =======================================

The format is versioned; :func:`loads` refuses payloads from a newer format
so stale readers fail loudly instead of mis-parsing. Round-tripping is
exact for every sketch/summary type (``loads(dumps(x)) == x``); experiment
results round-trip all numeric fields and a JSON-safe projection of their
free-form ``extra`` diagnostics.

:func:`register_codec` is the extension point: :mod:`repro.api` registers
the ``run-config``/``run-report`` codecs through it at import (the config
payload additionally carries its own schema version and rejects unknown
keys with an actionable :class:`~repro.errors.ConfigurationError` — see
:meth:`repro.api.RunConfig.from_jsonable`). Decoding one of those tags
bootstraps :mod:`repro.api` on demand, so ``loads`` works regardless of
import order.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import ConfigurationError, SketchError
from repro.frequent.gk import GKSummary
from repro.frequent.mp_fi import FrequentItemsSynopsis
from repro.frequent.summary import Summary
from repro.frequent.td_quantiles import QuantileSynopsis
from repro.aggregates.sample import UniformSample
from repro.multipath.fm import BITS, FMSketch
from repro.multipath.kmv import KMVSketch
from repro.network.energy import EnergyReport
from repro.network.links import TransmissionLog
from repro.network.simulator import EpochResult, RunResult

#: Format version; bump on breaking changes to any encoding below.
FORMAT_VERSION = 1

#: Tags whose decoders validate their own schema version (populated by
#: :func:`register_codec`).
_SELF_VERSIONED_TAGS: set = set()

_SCALARS = (str, int, float, bool, type(None))


def _jsonable_extra(extra: Dict[str, object]) -> Dict[str, object]:
    """Best-effort JSON projection of a free-form diagnostics dict.

    Scalars pass through; dicts with scalar values are kept with stringified
    keys; lists of scalars are kept; everything else is dropped (extras are
    diagnostics, not state — dropping beats failing the archive write).
    """
    safe: Dict[str, object] = {}
    for key, value in extra.items():
        if isinstance(value, _SCALARS):
            safe[str(key)] = value
        elif isinstance(value, dict) and all(
            isinstance(v, _SCALARS) for v in value.values()
        ):
            safe[str(key)] = {str(k): v for k, v in value.items()}
        elif isinstance(value, (list, tuple)) and all(
            isinstance(v, _SCALARS) for v in value
        ):
            safe[str(key)] = list(value)
    return safe


# -- encoders ----------------------------------------------------------------


def _encode_fm(sketch: FMSketch) -> Dict[str, Any]:
    return {
        "num_bitmaps": sketch.num_bitmaps,
        "bits": BITS,
        "bitmaps": list(sketch.bitmaps),
    }


def _decode_fm(data: Dict[str, Any]) -> FMSketch:
    """An FM payload back to its sketch; a stored width other than
    :data:`~repro.multipath.fm.BITS` or a bitmap that is not a
    non-negative integer is refused with the field it sits in."""
    if data["bits"] != BITS:
        raise SketchError(
            f"FM payload field 'bits' must be {BITS}, got {data['bits']!r}"
        )
    for index, bitmap in enumerate(data["bitmaps"]):
        if type(bitmap) is not int or bitmap < 0:
            raise SketchError(
                f"FM payload field 'bitmaps' entry {index} must be a "
                f"non-negative integer, got {bitmap!r}"
            )
    return FMSketch(num_bitmaps=data["num_bitmaps"], bitmaps=data["bitmaps"])


def _encode_kmv(sketch: KMVSketch) -> Dict[str, Any]:
    return {
        "k": sketch.k,
        "values": list(sketch._values),
        "saturated": sketch._saturated,
    }


def _decode_kmv(data: Dict[str, Any]) -> KMVSketch:
    sketch = KMVSketch(k=data["k"], values=data["values"])
    # fuse()/copy() restore this flag the same way.
    sketch._saturated = bool(data["saturated"])
    return sketch


def _encode_summary(summary: Summary) -> Dict[str, Any]:
    return {
        "n": summary.n,
        "epsilon": summary.epsilon,
        "counts": [[item, count] for item, count in sorted(summary.counts.items())],
    }


def _decode_summary(data: Dict[str, Any]) -> Summary:
    return Summary(
        n=data["n"],
        epsilon=data["epsilon"],
        counts={item: count for item, count in data["counts"]},
    )


def _encode_fi_synopsis(synopsis: FrequentItemsSynopsis) -> Dict[str, Any]:
    return {
        "klass": synopsis.klass,
        "n_sketch": to_jsonable(synopsis.n_sketch),
        "counts": [
            [item, to_jsonable(sketch)]
            for item, sketch in sorted(synopsis.counts.items())
        ],
    }


def _decode_fi_synopsis(data: Dict[str, Any]) -> FrequentItemsSynopsis:
    return FrequentItemsSynopsis(
        klass=data["klass"],
        n_sketch=from_jsonable(data["n_sketch"]),
        counts={item: from_jsonable(sketch) for item, sketch in data["counts"]},
    )


def _encode_gk(summary: GKSummary) -> Dict[str, Any]:
    return {
        "n": summary.n,
        "rank_error": summary.rank_error,
        "entries": [list(entry) for entry in summary.entries],
    }


def _decode_gk(data: Dict[str, Any]) -> GKSummary:
    return GKSummary(
        n=data["n"],
        rank_error=data["rank_error"],
        entries=tuple(
            (value, int(rmin), int(rmax)) for value, rmin, rmax in data["entries"]
        ),
    )


def _encode_uniform_sample(sample: UniformSample) -> Dict[str, Any]:
    return {
        "capacity": sample.capacity,
        "entries": [list(entry) for entry in sample.entries],
    }


def _decode_uniform_sample(data: Dict[str, Any]) -> UniformSample:
    return UniformSample(
        capacity=data["capacity"],
        entries=tuple(
            (priority, int(node), value)
            for priority, node, value in data["entries"]
        ),
    )


def _encode_quantile_synopsis(synopsis: QuantileSynopsis) -> Dict[str, Any]:
    return {
        "capacity": synopsis.capacity,
        "population_weight": synopsis.population_weight,
        "entries": [list(entry) for entry in synopsis.entries],
    }


def _decode_quantile_synopsis(data: Dict[str, Any]) -> QuantileSynopsis:
    return QuantileSynopsis(
        capacity=data["capacity"],
        population_weight=data["population_weight"],
        entries=tuple(
            (priority, int(key), value, weight)
            for priority, key, value, weight in data["entries"]
        ),
    )


def _encode_transmission_log(log: TransmissionLog) -> Dict[str, Any]:
    return {
        "transmissions": log.transmissions,
        "deliveries": log.deliveries,
        "drops": log.drops,
        "words_sent": log.words_sent,
        "messages_sent": log.messages_sent,
    }


def _decode_transmission_log(data: Dict[str, Any]) -> TransmissionLog:
    return TransmissionLog(
        transmissions=data["transmissions"],
        deliveries=data["deliveries"],
        drops=data["drops"],
        words_sent=data["words_sent"],
        messages_sent=data["messages_sent"],
    )


def _encode_energy_report(report: EnergyReport) -> Dict[str, Any]:
    return {
        "total_messages": report.total_messages,
        "total_words": report.total_words,
        "total_uj": report.total_uj,
        "per_node_uj": {str(node): uj for node, uj in report.per_node_uj.items()},
    }


def _decode_energy_report(data: Dict[str, Any]) -> EnergyReport:
    return EnergyReport(
        total_messages=data["total_messages"],
        total_words=data["total_words"],
        total_uj=data["total_uj"],
        per_node_uj={int(node): uj for node, uj in data["per_node_uj"].items()},
    )


def _encode_epoch_result(result: EpochResult) -> Dict[str, Any]:
    return {
        "epoch": result.epoch,
        "estimate": result.estimate,
        "true_value": result.true_value,
        "contributing": result.contributing,
        "contributing_estimate": result.contributing_estimate,
        "log": _encode_transmission_log(result.log),
        "extra": _jsonable_extra(result.extra),
    }


def _decode_epoch_result(data: Dict[str, Any]) -> EpochResult:
    extra = dict(data["extra"])
    # JSON keys are strings; the missing statistics are keyed by node id.
    if isinstance(extra.get("missing_stats"), dict):
        extra["missing_stats"] = {
            int(node): value for node, value in extra["missing_stats"].items()
        }
    return EpochResult(
        epoch=data["epoch"],
        estimate=data["estimate"],
        true_value=data["true_value"],
        contributing=data["contributing"],
        contributing_estimate=data["contributing_estimate"],
        log=_decode_transmission_log(data["log"]),
        extra=extra,
    )


def _encode_run_result(result: RunResult) -> Dict[str, Any]:
    payload = {
        "scheme_name": result.scheme_name,
        "epochs": [_encode_epoch_result(epoch) for epoch in result.epochs],
        "energy": _encode_energy_report(result.energy),
    }
    # Present only under a non-default retention policy, so pre-retention
    # payloads (and their bytes) are unchanged.
    if result.stats is not None:
        payload["stats"] = result.stats.to_jsonable()
    return payload


def _decode_run_result(data: Dict[str, Any]) -> RunResult:
    from repro.network.simulator import RunningStats

    stats = data.get("stats")
    return RunResult(
        scheme_name=data["scheme_name"],
        epochs=[_decode_epoch_result(epoch) for epoch in data["epochs"]],
        energy=_decode_energy_report(data["energy"]),
        stats=None if stats is None else RunningStats.from_jsonable(stats),
    )


#: type -> (tag, encoder); decoding dispatches on the tag.
_ENCODERS: List[Tuple[type, str, Callable[[Any], Dict[str, Any]]]] = [
    (FMSketch, "fm", _encode_fm),
    (KMVSketch, "kmv", _encode_kmv),
    (Summary, "summary", _encode_summary),
    (FrequentItemsSynopsis, "fi-synopsis", _encode_fi_synopsis),
    (GKSummary, "gk", _encode_gk),
    (UniformSample, "uniform-sample", _encode_uniform_sample),
    (QuantileSynopsis, "quantile-synopsis", _encode_quantile_synopsis),
    (TransmissionLog, "transmission-log", _encode_transmission_log),
    (EnergyReport, "energy-report", _encode_energy_report),
    (EpochResult, "epoch-result", _encode_epoch_result),
    (RunResult, "run-result", _encode_run_result),
]

_DECODERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "fm": _decode_fm,
    "kmv": _decode_kmv,
    "summary": _decode_summary,
    "fi-synopsis": _decode_fi_synopsis,
    "gk": _decode_gk,
    "uniform-sample": _decode_uniform_sample,
    "quantile-synopsis": _decode_quantile_synopsis,
    "transmission-log": _decode_transmission_log,
    "energy-report": _decode_energy_report,
    "epoch-result": _decode_epoch_result,
    "run-result": _decode_run_result,
}


def register_codec(
    klass: type,
    tag: str,
    encoder: Callable[[Any], Dict[str, Any]],
    decoder: Callable[[Dict[str, Any]], Any],
) -> None:
    """Add (or replace) a wire codec for ``klass`` under ``tag``.

    The extension point other layers use to join the serialisation format
    without this module importing them (:mod:`repro.api` registers its
    config codec this way). Encoders return a plain dict; the ``type`` and
    ``version`` envelope is stamped by :func:`to_jsonable`.
    """
    for index, (existing, existing_tag, _) in enumerate(_ENCODERS):
        if existing is klass or existing_tag == tag:
            _ENCODERS[index] = (klass, tag, encoder)
            break
    else:
        _ENCODERS.append((klass, tag, encoder))
    _DECODERS[tag] = decoder
    # Registered codecs own their payload's schema version (e.g. the
    # run-config codec validates CONFIG_SCHEMA_VERSION itself), so the
    # global FORMAT_VERSION gate does not apply to them.
    _SELF_VERSIONED_TAGS.add(tag)


def _bootstrap_api() -> None:
    """Load the self-registering codec modules (idempotent).

    :mod:`repro.api` registers the run-config/run-report codecs;
    :mod:`repro.service.streams` the aggregation service's wire records
    (``query-submit``, ``epoch-record``). Both join the format without
    this module importing them at import time.
    """
    import repro.api  # noqa: F401  (import-for-side-effect)
    import repro.service.streams  # noqa: F401  (import-for-side-effect)


def to_jsonable(obj: Any) -> Dict[str, Any]:
    """Encode any supported object to a plain JSON-serialisable dict."""
    for attempt in range(2):
        for klass, tag, encoder in _ENCODERS:
            if isinstance(obj, klass):
                payload = encoder(obj)
                payload["type"] = tag
                # Self-versioned payloads (run-config) keep their own
                # schema version; everything else gets the format's.
                payload.setdefault("version", FORMAT_VERSION)
                return payload
        if attempt == 0:
            _bootstrap_api()
    raise ConfigurationError(
        f"don't know how to serialise {type(obj).__name__}"
    )


def from_jsonable(data: Dict[str, Any]) -> Any:
    """Decode a dict produced by :func:`to_jsonable`."""
    if "type" not in data:
        raise ConfigurationError("payload has no 'type' tag")
    tag = data["type"]
    decoder = _DECODERS.get(tag)
    if decoder is None:
        _bootstrap_api()
        decoder = _DECODERS.get(tag)
    if decoder is None:
        raise ConfigurationError(f"unknown payload type {tag!r}")
    version = data.get("version", 0)
    if tag not in _SELF_VERSIONED_TAGS and version > FORMAT_VERSION:
        raise ConfigurationError(
            f"payload format version {version} is newer than this reader "
            f"({FORMAT_VERSION})"
        )
    return decoder(data)


def dumps(obj: Any, indent: int | None = None) -> str:
    """Serialise a supported object to a JSON string."""
    return json.dumps(to_jsonable(obj), indent=indent, sort_keys=True)


def loads(text: str) -> Any:
    """Deserialise a JSON string produced by :func:`dumps`."""
    return from_jsonable(json.loads(text))


def save(obj: Any, path: str) -> None:
    """Write an object's JSON form to a file."""
    with open(path, "w") as handle:
        handle.write(dumps(obj, indent=2))
        handle.write("\n")


def load(path: str) -> Any:
    """Read an object back from a file written by :func:`save`."""
    with open(path) as handle:
        return loads(handle.read())
