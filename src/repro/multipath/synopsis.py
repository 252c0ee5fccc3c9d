"""The synopsis-diffusion SG/SF/SE framework (Section 2, terminology of [16]).

An aggregate is computed over a multi-path topology with three functions:

* **SG** (synopsis generation): local readings -> synopsis, applied at each
  node;
* **SF** (synopsis fusion): synopsis x synopsis -> synopsis, applied when
  partial results meet in-network — it must be order- and duplicate-
  insensitive (ODI);
* **SE** (synopsis evaluation): synopsis -> answer, applied at the base
  station.

:class:`SynopsisSpec` is the protocol; :func:`check_odi` is a test helper
that verifies the ODI properties (commutativity, associativity, idempotence)
on concrete synopses, which is the practical correctness condition from [16].
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, TypeVar

S = TypeVar("S")


class SynopsisSpec(Protocol[S]):
    """The SG/SF/SE triple defining one multi-path aggregate."""

    def generate(self, node: int, epoch: int, reading: float) -> S:
        """SG: produce the node's local synopsis."""
        ...

    def fuse(self, a: S, b: S) -> S:
        """SF: combine two synopses (must be ODI)."""
        ...

    def evaluate(self, synopsis: S) -> float:
        """SE: translate a synopsis into a query answer."""
        ...

    def words(self, synopsis: S) -> int:
        """Transmission size of a synopsis in 32-bit words."""
        ...


def fuse_all(spec: SynopsisSpec[S], synopses: Sequence[S]) -> S:
    """Left-fold SF over a non-empty sequence of synopses."""
    if not synopses:
        raise ValueError("fuse_all requires at least one synopsis")
    result = synopses[0]
    for synopsis in synopses[1:]:
        result = spec.fuse(result, synopsis)
    return result


def check_odi(
    fuse: Callable[[S, S], S],
    synopses: Sequence[S],
    equal: Callable[[S, S], bool] = lambda a, b: a == b,
) -> bool:
    """Check SF's ODI properties on concrete instances.

    Verifies, for the given synopses: commutativity (a+b = b+a),
    associativity ((a+b)+c = a+(b+c)), and idempotence (a+a = a). These three
    plus SG determinism imply the full ODI correctness of [16] for any
    aggregation DAG.
    """
    if not synopses:
        return True
    first = synopses[0]
    if not equal(fuse(first, first), first):
        return False
    for a in synopses:
        for b in synopses:
            if not equal(fuse(a, b), fuse(b, a)):
                return False
            for c in synopses:
                if not equal(fuse(fuse(a, b), c), fuse(a, fuse(b, c))):
                    return False
    return True
