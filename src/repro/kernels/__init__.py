"""The fused array kernel for the one aggregation wave.

:func:`repro.kernels.td.run_td_block` runs a whole epoch block of any
:class:`~repro.core.wave.WaveLayout` — TAG's all-T, SD's all-M, TD's mixed —
for any query, as numpy passes over ``(node, epoch)`` rows, byte-identical
to the scalar oracle; :mod:`repro.kernels.sd` holds its packed OR-wave.
Every query's leaf slots ride the rows (FM, extremum or object columns), so
the kernel refuses nothing: a scheme runs the scalar oracle instead only
under ``use_batch=False`` or with chaos attached, and ``engine_path`` says
which engine ran.
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
