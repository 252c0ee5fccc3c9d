"""The fused array kernel for the one aggregation wave.

:func:`repro.kernels.td.run_td_block` runs a whole epoch block of any
:class:`~repro.core.wave.WaveLayout` — TAG's all-T, SD's all-M, TD's mixed —
as numpy passes over ``(node, epoch)`` rows, byte-identical to the
per-payload object wave; :mod:`repro.kernels.sd` holds its packed OR-wave.
``repro.kernels.td.refusal(layout, aggregate, channel)`` is ``None`` when a
block is eligible, else a short reason, and is the only thing that decides
fused versus object; ``use_batch=False`` on a scheme bypasses both for the
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
    packed row does not hold; the kernel's ``refusal`` reports them by what
    they are rather than by the capability hook they fail.
    """
    if getattr(aggregate, "workload_names", None) is not None:
        return "workload aggregate"
    if getattr(aggregate, "group_by_spec", None) is not None:
        return "grouped query"
    return None


__all__ = ["get_backend", "wrapper_reason"]
