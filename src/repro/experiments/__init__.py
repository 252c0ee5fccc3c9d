"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run_*(quick=False, ...)`` function returning a
result object with the same rows/series the paper reports, plus a
``render()`` that formats it as text.

An experiment that runs the scalar engine (Table 1's Count rows, Figures
2, 4, 5(a), 5(b) and 6, the LabData RMS numbers, the churn timeline, the
battery lifetimes, Table 1's latency column, the threshold / cadence /
expansion-heuristic sweeps) is *defined* by its
:data:`repro.api.EXPERIMENT_CONFIGS` entry: its module sweeps that config
over the experiment's axes through :meth:`repro.api.Session.sweep` and
folds the rows into the result object — or, where it reads the live scheme
(Figure 4's delta nodes, control messages, an unregistered policy), drives
the config's ``build_scenario`` -> ``build_scheme`` -> ``converge`` /
``build_simulator`` steps. The config's sizes are the paper's setup
(600-node Synthetic, 100-epoch collection, adaptation every 10 epochs, 90%
threshold); ``quick=True`` is a ``RunConfig.replace`` of those sizes so the
whole suite runs in minutes. The domination-factor figures and the
frequent-items experiments (Figures 7-9, Table 1's Freq. Items rows, the
eps_a/eps_b split sweep) run their own network loops, not the scalar
engine, and wire their geometry by hand.
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
