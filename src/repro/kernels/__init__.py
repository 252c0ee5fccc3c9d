"""Fused array kernels for the level-synchronous scheme hot paths.

One module per scheme family — :mod:`~repro.kernels.tag`,
:mod:`~repro.kernels.sd` and :mod:`~repro.kernels.td` — each runs a whole
epoch block as numpy passes over ``(node, epoch)`` rows, byte-identical to
the scheme's per-payload object wave. Each also exports
``refusal(scheme, channel)``: ``None`` when a block is eligible, else a short
reason. That refusal is the only thing that decides fused versus object
(:func:`runs_fused`); ``use_batch=False`` on a scheme bypasses both for the
scalar oracle.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

#: What :func:`get_backend` reports: the kernels are plain numpy passes.
_NUMPY_KERNELS = SimpleNamespace(name="pure")


def get_backend() -> SimpleNamespace:
    """The kernels' implementation, by ``.name`` (always ``"pure"``).

    Run records (the end-to-end benchmark's environment block) log it.
    """
    return _NUMPY_KERNELS


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


def runs_fused(scheme, channel, refusal) -> bool:
    """Whether ``scheme``'s next block runs on its fused kernel.

    ``refusal(scheme, channel)`` is the kernel's gate: None when the block
    is eligible, else a short reason. Either way the decision lands on
    ``scheme.engine_path`` — ``"fused"`` or ``"object: <reason>"`` — so a
    run can say which engine it took without a profiler.
    """
    reason = refusal(scheme, channel)
    scheme._engine_path = "fused" if reason is None else f"object: {reason}"
    return reason is None


__all__ = ["get_backend", "runs_fused", "wrapper_reason"]
