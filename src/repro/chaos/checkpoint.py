"""Crash-safe checkpoint/resume for simulation runs.

At every checkpoint boundary (a multiple of the checkpoint interval, before
the churn event of that offset) the simulator snapshots everything its
remaining epochs depend on: recorded results and energy totals, plus one
section per stateful part — channel, membership, scheme, chaos runtime,
readings — written and read by the part itself through
its ``checkpoint_state()`` / ``restore_state(...)`` pair; this module only
walks them. Everything else — delivery draws, readings, fault decisions —
is a pure keyed-hash function of (seed, node, epoch), so it needs no
state: a resumed run re-derives it identically.

That is the crash-safety argument in one line: **state that is not pure is
checkpointed; state that is pure is recomputed** — so a run killed at any
boundary and resumed from its checkpoint produces a byte-identical
:class:`~repro.network.simulator.RunResult`.

The checkpoint file is plain JSON (atomic write: temp file + rename), with
the result/energy items encoded through :mod:`repro.serialization` codecs.
A fingerprint of the run configuration guards against resuming with a
mismatched config; :class:`Checkpointer` also hosts the ``kill_at`` crash
drill.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro import serialization
from repro.errors import ConfigurationError, SimulationKilled

#: Bump when the checkpoint payload layout changes.
CHECKPOINT_VERSION = 1

#: File name inside the checkpoint directory.
CHECKPOINT_FILE = "checkpoint.json"


class Checkpointer:
    """Writes, loads and (in crash drills) kills at block boundaries.

    Attributes:
        directory: where ``checkpoint.json`` lives.
        interval: epochs between checkpoints; boundaries are the offsets
            divisible by it. The blocked engine caps its spans so block
            edges always land on these boundaries.
        resume: when True, :meth:`load` feeds an existing checkpoint back
            into the simulator before the run starts.
        kill_at: crash-drill offset — the run raises
            :class:`~repro.errors.SimulationKilled` at the first checkpoint
            boundary at or past it, right after writing the checkpoint.
    """

    def __init__(
        self,
        directory: str,
        interval: int = 10,
        resume: bool = False,
        kill_at: Optional[int] = None,
    ) -> None:
        if interval < 1:
            raise ConfigurationError(
                "checkpoint interval must be at least 1 epoch"
            )
        self.directory = directory
        self.interval = interval
        self.resume = resume
        self.kill_at = kill_at

    @property
    def path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_FILE)

    def due(self, offset: int) -> bool:
        """Whether ``offset`` is a checkpoint boundary (offset 0 is not —
        there is nothing to save before the first epoch)."""
        return offset > 0 and offset % self.interval == 0

    def span_cap(self, offset: int) -> int:
        """Epochs the blocked engine may run from ``offset`` before the
        next checkpoint boundary."""
        return self.interval - offset % self.interval

    def write(self, payload: Dict[str, Any]) -> None:
        """Atomically persist a checkpoint payload (temp file + rename)."""
        os.makedirs(self.directory, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, self.path)

    def load(self) -> Optional[Dict[str, Any]]:
        """The stored payload, or None if no checkpoint exists yet.

        A damaged file is refused, never resumed over with fresh state.
        """
        if not os.path.exists(self.path):
            return None
        with open(self.path) as handle:
            try:
                payload = json.load(handle)
            except ValueError as error:
                raise ConfigurationError(
                    f"checkpoint {self.path} is not valid JSON: {error}"
                ) from None
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"checkpoint {self.path} is not a JSON object"
            )
        return payload

    def maybe_kill(self, offset: int) -> None:
        """Crash drill: die loudly once the kill offset is reached.

        Called right after a checkpoint write, so the on-disk state is
        always resumable when this raises.
        """
        if self.kill_at is not None and offset >= self.kill_at:
            raise SimulationKilled(
                f"run deliberately killed at checkpointed offset {offset}; "
                "resume with --resume",
                offset=offset,
            )


# -- the walk ---------------------------------------------------------------


def _state(part) -> Optional[Dict[str, Any]]:
    """``part.checkpoint_state()``, or None for a part without the hook."""
    hook = getattr(part, "checkpoint_state", None)
    return hook() if callable(hook) else None


def capture_run_state(
    simulator,
    offset: int,
    results: List,
    energy,
    readings,
    fingerprint: Dict[str, Any],
) -> Dict[str, Any]:
    """Snapshot everything a resumed run cannot re-derive from hashes.

    Each part writes its own section; a scheme without the hook is
    ``{"kind": "opaque"}`` (nothing of it is restored), and the
    ``readings`` key exists only when the readings keep state.
    """
    channel = simulator.channel
    payload: Dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "offset": offset,
        "fingerprint": fingerprint,
        "results": [serialization.to_jsonable(result) for result in results],
        "energy": serialization.to_jsonable(energy),
        "channel": channel.checkpoint_state(),
        "membership": _state(simulator.membership),
        "scheme": _state(simulator.scheme) or {"kind": "opaque"},
    }
    if channel.chaos is not None:
        payload["chaos"] = channel.chaos.checkpoint_state()
    state = _state(readings)
    if state is not None:
        payload["readings"] = state
    return payload


def restore_run_state(
    simulator,
    payload: Dict[str, Any],
    results: List,
    energy,
    readings,
    fingerprint: Dict[str, Any],
) -> int:
    """Feed a checkpoint payload back into a freshly built run.

    Returns the epoch offset the run should continue from. Raises
    :class:`~repro.errors.ConfigurationError` when the checkpoint does not
    match the configured run.
    """
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint version {payload.get('version')!r}"
        )
    if payload["fingerprint"] != fingerprint:
        raise ConfigurationError(
            "checkpoint fingerprint does not match this run: "
            f"{payload['fingerprint']} != {fingerprint}"
        )
    membership = simulator.membership
    if (payload["membership"] is None) != (membership is None):
        raise ConfigurationError(
            "checkpoint carries membership state but churn is not configured"
            if membership is None
            else "checkpoint has no membership state but churn is configured"
        )
    if membership is not None:
        # First: the scheme's restore re-rings over these rings.
        membership.restore_state(payload["membership"])
    scheme = simulator.scheme
    kind = payload["scheme"]["kind"]
    expected = (_state(scheme) or {"kind": "opaque"})["kind"]
    if kind != expected:
        raise ConfigurationError(
            f"checkpoint holds a {kind!r} scheme, this run a {expected!r} one"
        )
    if kind != "opaque":
        scheme.restore_state(payload["scheme"], membership)
    simulator.channel.restore_state(payload["channel"])
    chaos = simulator.channel.chaos
    if chaos is not None and "chaos" in payload:
        chaos.restore_state(payload["chaos"])
    restored_energy = serialization.from_jsonable(payload["energy"])
    for total in ("total_messages", "total_words", "total_uj"):
        setattr(energy, total, getattr(restored_energy, total))
    energy.per_node_uj.clear()
    energy.per_node_uj.update(restored_energy.per_node_uj)
    results.extend(
        serialization.from_jsonable(item) for item in payload["results"]
    )
    if callable(getattr(readings, "restore_state", None)):
        if "readings" not in payload:  # written before the readings kept state
            raise ConfigurationError(
                "checkpoint has no readings state but this run keeps some"
            )
        readings.restore_state(payload["readings"])
    return payload["offset"]
