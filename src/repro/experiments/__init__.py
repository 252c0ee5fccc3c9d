"""Experiment harness: the paper's tables and figures as rows of one table.

:data:`FIGURES` maps each name ``repro list`` prints to one row, in print
order; ``repro run NAME`` calls ``FIGURES[NAME].run(quick, seed)`` and prints
the result's ``render()``. ``quick`` shrinks the paper's setup (600-node
Synthetic, 100-epoch collection, adaptation every 10 epochs, 90% threshold)
so the whole suite runs in minutes. A row is one of two kinds.

A :class:`SweepFigure` is plain data. Figures 2, 5(a), 5(b) and 6, the
LabData RMS numbers and the threshold sweep each sweep one
:data:`repro.api.EXPERIMENT_CONFIGS` entry (``config``) over a ``grid``
(``{"failure": [...], "scheme": [...]}`` or ``{"threshold": [...]}``)
through :meth:`repro.api.Session.sweep`. The row also holds its ``quick``
sizes (a ``RunConfig.replace`` and nothing else), its seed rule (the
measurement ``seed`` is the figure's seed plus ``seed_offset``; the seed
keys the deployment too unless the config's fixed ``scenario_seed`` is
kept), its x axis (the printed table's rows: loss rate, Figure 6 phase,
scheme or threshold) and a ``series`` extractor that folds the
:class:`~repro.api.SweepReport` into one column per series. Every sweep row
returns a :class:`FigureResult`, which keeps the report beside its table.

A :class:`RunnerFigure`'s entry is its module's own runner, because what
it reports is not in the run record:

* it reads the live scheme, driving its config's ``build_scenario`` ->
  ``Scenario.bind`` / ``converge`` / ``build_simulator`` steps: Table 1
  re-measures the converged scheme without loss, Figure 4 reads the
  converged delta's node set, the churn timeline reads repair counts off
  the membership runtime, lifetime places TD's ring-1 delta by hand,
  latency needs only the ``table1`` config's rings, ``sweep-interval``
  reads control messages and ``sweep-heuristic`` the adaptation log under
  policies no registered scheme uses;
* it runs its own network loop, not the scalar engine: the
  domination-factor experiments (Figures 7a and 7b, Table 2) and the
  frequent-items ones (Figures 8, 9a and 9b, the eps_a/eps_b split sweep).

A row's ``config`` names its ``EXPERIMENT_CONFIGS`` entry where it has one;
``repro describe NAME`` prints that config.
"""

from repro.experiments.figures import FIGURES

__all__ = ["FIGURES"]
