"""Pluggable array-kernel backends for the fused scheme hot paths.

The level-synchronous schemes spend their time in four primitive shapes:
OR-merging packed synopsis rows into parent accumulators, adding integer
tree partials into parent columns, reducing delivery flags per sender, and
RLE-sizing packed bitmap rows. This package names those primitives once
(:class:`KernelBackend`) and provides two backends:

* ``pure`` — numpy ufunc passes (the default).
* ``object`` — a sentinel that disables the fused array path entirely;
  schemes fall back to the per-payload object engine (the PR-2 path),
  which doubles as the safety hatch and the reference
  ``tests/test_kernels.py`` compares the fused path against.

Selection order: an explicit backend name (``RunConfig.engine.backend``,
threaded to the schemes at construction) beats the ``REPRO_KERNEL_BACKEND``
environment variable, which beats the ``"pure"`` default. An unknown name
raises — a silently substituted backend would make perf numbers lie.

Backend instances are memoized **by backend name** — the one kernels-level
cache — so every cache key in the fused path is backend-qualified by
construction and two backends can never alias each other's entries.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError

#: Environment variable naming the default kernel backend.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The hard default when neither config nor environment chooses.
DEFAULT_BACKEND = "pure"


class KernelBackend:
    """The primitive kernel surface the fused scheme paths consume.

    ``fused`` reports whether this backend can run the array-native path
    at all; the ``object`` sentinel sets it ``False`` and implements no
    primitives. All matrix primitives operate on C-contiguous numpy
    arrays; implementations must be bit-identical to the pure-numpy
    reference. Floats may touch a packed word only where the result is
    exact: the RLE sizing reads a uint32 word's bit length from the
    ``frexp`` exponent of its float64 value, and every uint32 is a float64
    exactly.
    """

    #: Registry name (also the key every derived cache must carry).
    name: str = "object"

    #: Whether the fused array path is available on this backend.
    fused: bool = False

    def or_into(self, dest, rows, values):
        """``dest[rows] |= values`` with unique ``rows``."""
        raise NotImplementedError

    def add_into(self, dest, rows, values):
        """``dest[rows] += values`` with possibly repeated ``rows``."""
        raise NotImplementedError

    def any_reduce(self, flags, starts, stops):
        """Per-segment any() over a ``(P, E)`` bool matrix.

        Segments are contiguous, non-overlapping and in order, but may be
        empty (``stops[i] == starts[i]``) — empty segments yield ``False``
        rows. Returns ``(len(starts), E)`` bool.
        """
        raise NotImplementedError

    def rle_words(self, matrix, bits):
        """RLE wire size per row of a packed bitmap matrix.

        Row ``r`` must equal
        ``repro.multipath.fm._packed_rle_words(packed_r, B, bits)`` for the
        packed integer whose bitmap ``j`` is ``matrix[r, j]``. Returns an
        int64 vector.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name!r} fused={self.fused}>"


class ObjectBackend(KernelBackend):
    """Fused kernels disabled: schemes run the per-payload object engine."""

    name = "object"
    fused = False


def _load_object() -> KernelBackend:
    return ObjectBackend()


def _load_pure() -> KernelBackend:
    from repro.kernels.backend_pure import PureBackend

    return PureBackend()


#: Backend loaders by name, run lazily on first request.
KERNEL_BACKENDS: Dict[str, Callable[[], KernelBackend]] = {
    "object": _load_object,
    "pure": _load_pure,
}

#: Loaded backend instances, memoized by backend name.
_INSTANCES: Dict[str, KernelBackend] = {}


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(KERNEL_BACKENDS)


def validate_backend_name(name: str) -> str:
    """Check that ``name`` is a registered backend (without loading it)."""
    if name not in KERNEL_BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; registered backends: "
            + ", ".join(backend_names())
        )
    return name


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a kernel backend: explicit name > environment > default.

    An unknown backend name (explicit or from the environment variable)
    raises — substituting a different backend silently would make every
    perf comparison suspect.
    """
    resolved = (
        name
        if name is not None
        else os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    )
    validate_backend_name(resolved)
    instance = _INSTANCES.get(resolved)
    if instance is None:
        instance = _INSTANCES[resolved] = KERNEL_BACKENDS[resolved]()
    return instance


def wrapper_reason(aggregate) -> Optional[str]:
    """Name the wrapper that keeps ``aggregate`` off the array rows, if any.

    Workloads and grouped queries carry per-query / per-cell object state a
    packed row does not hold; the kernels' ``refusal`` functions report them
    by what they are rather than by the capability hook they fail.
    """
    if getattr(aggregate, "workload_names", None) is not None:
        return "workload aggregate"
    if getattr(aggregate, "group_by_spec", None) is not None:
        return "grouped query"
    return None


def fused_backend(scheme, channel, refusal) -> Optional[KernelBackend]:
    """The backend to run ``scheme``'s next block fused on, or None.

    ``refusal(scheme, channel)`` is the scheme's kernel gate: None when the
    block is eligible, else a short reason. Either way the decision lands
    on ``scheme.engine_path`` — ``"fused"`` or ``"object: <reason>"`` — so
    a run can say which engine it took without a profiler.
    """
    backend = get_backend(scheme._kernel_backend)
    reason = (
        refusal(scheme, channel)
        if backend.fused
        else f"{backend.name} backend"
    )
    scheme._engine_path = "fused" if reason is None else f"object: {reason}"
    return backend if reason is None else None


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KERNEL_BACKENDS",
    "KernelBackend",
    "ObjectBackend",
    "backend_names",
    "fused_backend",
    "get_backend",
    "validate_backend_name",
    "wrapper_reason",
]
