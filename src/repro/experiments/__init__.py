"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run_*(quick=False, ...)`` function returning a
result object with the same rows/series the paper reports, plus a
``render()`` that formats it as text.

A figure that is a set of scalar-aggregate runs (Table 1's Count rows,
Figures 2, 5(a), 5(b) and 6, the LabData RMS numbers, the churn timeline)
is *defined* by its :data:`repro.api.EXPERIMENT_CONFIGS` entry: its module
sweeps that config over the figure's scheme/failure axes through
:meth:`repro.api.Session.sweep` and folds the rows into the result object.
The config's sizes are the paper's setup (600-node Synthetic, 100-epoch
collection, adaptation every 10 epochs, 90% threshold); ``quick=True`` is
a ``RunConfig.replace`` of those sizes so the whole suite runs in minutes.
The remaining figures (domination factors, frequent items, latency,
lifetime, the design-knob sweeps) have no config form and wire their
geometry by hand.
"""

from repro.experiments.metrics import (
    mean,
    relative_error,
    rms_error_series,
)

__all__ = [
    "mean",
    "relative_error",
    "rms_error_series",
]
