"""Admission control: fit the portfolio's piggyback into message budgets.

A sensor message has a fixed payload size (TinyDB's ~48-byte packets; the
paper bills transmissions in words). One running workload piggybacks every
admitted query's partial into a shared per-node message, so each admitted
query grows the message. The controller enforces a configurable
**per-message word budget**:

* a query whose own payload exceeds the budget can never fit in one
  message — it is **rejected** (the server's 413);
* a query that fits, but would overflow the message the current portfolio
  shares, is **split** onto the next car of the packet train (admitted,
  billed as one more message's overhead; the split counter and the train
  length surface on ``GET /stats``).

Estimates come from probing, not guessing: the candidate's aggregate is
built over the server's real reading source and its synopsis/partial wire
sizes measured at a handful of (node, epoch) points, keeping the estimate
honest for value-dependent encodings (RLE'd FM bitmaps grow with reading
magnitude).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.network.simulator import gather_readings


class AdmissionError(ConfigurationError):
    """Raised when a submission cannot be admitted (maps to HTTP 413)."""


@dataclass(frozen=True)
class Admission:
    """The controller's verdict for one admitted submission."""

    action: str  # "shared" (fits the current car) or "split" (new car)
    words: int  # estimated per-message words the submission adds
    cars_before: int
    cars_after: int

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "action": self.action,
            "words": self.words,
            "cars_before": self.cars_before,
            "cars_after": self.cars_after,
        }


class AdmissionController:
    """Enforces the per-message word budget over the live portfolio.

    Args:
        source: the server's reading source (estimates probe real values).
        budget_words: per-message word budget; one packet-train car.
        start_epoch: first measurement epoch (probes sample from here).
        probe_nodes: how many sensor ids to probe.
        probe_epochs: how many epochs to probe.
    """

    def __init__(
        self,
        source,
        budget_words: int = 256,
        start_epoch: int = 0,
        probe_nodes: int = 4,
        probe_epochs: int = 3,
        deployment=None,
    ) -> None:
        if budget_words < 1:
            raise ConfigurationError(
                "budget_words must be a positive word count"
            )
        self._source = source
        # Node positions, needed only to probe GROUP BY parts (the grouped
        # payload is a per-region cube whose size the probe must see).
        self._deployment = deployment
        self.budget_words = budget_words
        self._start_epoch = start_epoch
        self._probe_nodes = max(1, probe_nodes)
        self._probe_epochs = max(1, probe_epochs)
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0
        self.splits = 0

    # -- estimation --------------------------------------------------------

    def estimate_words(self, query) -> int:
        """Worst observed wire size (words) of one query's payload.

        ``query`` is a :class:`~repro.query.ContinuousQuery` (a planner
        part). Probes both encodings — the multi-path synopsis and the
        tree partial — and takes the larger: the scheme may route either.
        """
        aggregate, readings = query.build(
            self._source, deployment=self._deployment
        )
        nodes = list(range(1, self._probe_nodes + 1))
        worst = 1
        for offset in range(self._probe_epochs):
            epoch = self._start_epoch + offset
            for node, value in zip(nodes, gather_readings(readings, nodes, epoch)):
                synopsis = aggregate.synopsis_local(node, epoch, value)
                partial = aggregate.tree_local(node, epoch, value)
                worst = max(
                    worst,
                    aggregate.synopsis_words(synopsis),
                    aggregate.tree_words(partial),
                )
        return worst

    # -- the verdict -------------------------------------------------------

    def cars(self, total_words: int) -> int:
        """Packet-train length for a combined payload of ``total_words``."""
        if total_words <= 0:
            return 1
        return -(-total_words // self.budget_words)  # ceil division

    def admit(self, new_words: int, current_words: int) -> Admission:
        """Admit ``new_words`` of payload against the current portfolio.

        ``current_words`` is the portfolio's combined estimated payload.
        Raises :class:`AdmissionError` when the submission alone cannot
        fit one message.
        """
        with self._lock:
            if new_words > self.budget_words:
                self.rejected += 1
                raise AdmissionError(
                    f"query payload of ~{new_words} words exceeds the "
                    f"per-message budget of {self.budget_words} words; "
                    "no packet can carry it — coarsen the query or raise "
                    "the server's --budget-words"
                )
            before = self.cars(current_words)
            after = self.cars(current_words + new_words)
            action = "shared" if after == before else "split"
            if action == "split":
                self.splits += 1
            self.admitted += 1
            return Admission(
                action=action,
                words=new_words,
                cars_before=before,
                cars_after=after,
            )

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "budget_words": self.budget_words,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "splits": self.splits,
            }


__all__ = ["Admission", "AdmissionController", "AdmissionError"]
