"""``check_odi``: the practical ODI condition of synopsis diffusion [16].

A synopsis fusion function (SF) must be order- and duplicate-insensitive
for multi-path aggregation to be correct on any aggregation DAG. The
sketch tests check that on concrete synopses with this helper.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

S = TypeVar("S")


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
