"""The fused array kernel for the one aggregation wave.

:func:`repro.kernels.td.run_td_block` runs a whole epoch block of any
:class:`~repro.core.wave.WaveLayout` — TAG's all-T, SD's all-M, TD's mixed —
as numpy passes over ``(node, epoch)`` rows, byte-identical to the
per-payload object wave; :mod:`repro.kernels.sd` holds its packed OR-wave.
``repro.kernels.td.refusal(layout, aggregate, channel)`` is ``None`` when a
block is eligible (every leaf slot of the query rides the rows), else a
short reason naming the slot that refused, and is the only thing that
decides fused versus object; ``use_batch=False`` on a scheme bypasses both
for the scalar oracle.
"""

from __future__ import annotations

from types import SimpleNamespace

#: What :func:`get_backend` reports: the kernels are plain numpy passes.
_NUMPY_KERNELS = SimpleNamespace(name="pure")


def get_backend() -> SimpleNamespace:
    """The kernels' implementation, by ``.name`` (always ``"pure"``).

    Run records (the end-to-end benchmark's environment block) log it.
    """
    return _NUMPY_KERNELS


__all__ = ["get_backend"]
