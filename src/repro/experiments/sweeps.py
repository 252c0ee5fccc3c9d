"""Parameter sweeps over the design knobs the paper leaves open.

Section 7 fixes several constants — a 90% contributing threshold, a
10-epoch adaptation cadence, an even eps_a + eps_b error split, the max/2
expansion heuristic — and the paper repeatedly notes the choices matter
("The time can be reduced by carefully choosing some parameters (e.g., how
often the topology is adapted), a full exploration of which is beyond the
scope of this paper"; "Exploration of optimal heuristics is part of our
future work"). These sweeps are that exploration:

* :func:`sweep_threshold` — the contributing-percentage target vs answer
  error and delta size (accuracy/energy trade-off of Section 4.1).
* :func:`sweep_adapt_interval` — adaptation cadence vs error and control
  traffic (the Figure 6 convergence discussion).
* :func:`sweep_expansion_heuristic` — top-1 / max-2 cut / top-k expansion
  (the Section 4.2 heuristics) vs error after a fixed convergence budget.
* :func:`sweep_epsilon_split` — the Section 6.3 error split eps_a vs eps_b
  for Tributary-Delta frequent items, vs false negatives and load.

The three Tributary-Delta sweeps are grids over their
:data:`repro.api.EXPERIMENT_CONFIGS` entry (``sweep_td``,
``sweep_heuristic``): the threshold grid is a plain
:meth:`repro.api.Session.sweep`; the other two read facts the run record
does not carry (control messages, the adaptation log) off the live scheme,
so each cell drives its config's scenario steps. The error-split sweep is
a frequent-items experiment and wires its network by hand.

Each sweep returns a :class:`SweepResult` whose ``render()`` emits both a
numeric table and an ASCII chart, like the per-figure experiment modules.

Every swept point is an independent simulation, so each sweep accepts a
``jobs`` argument and fans its measurements across the process pool of
:func:`repro.parallel.parallel_map`; results are ordered
deterministically and identical to a serial run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    EXPERIMENT_CONFIGS,
    RunConfig,
    Session,
    build_scenario,
    expand_grid,
)
from repro.core.adaptation import DampedPolicy, TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.datasets.streams import exact_item_counts
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import ConfigurationError
from repro.frequent.mp_fi import FMOperator
from repro.frequent.reporting import false_negative_rate, true_frequent
from repro.frequent.td_fi import TributaryDeltaFrequentItems
from repro.network.failures import GlobalLoss
from repro.network.links import Channel
from repro.parallel import parallel_map
from repro.plotting import LineChart, render_series_table
from repro.registry import SchemeEntry, build_td
from repro.tree.construction import build_bushy_tree


@dataclass
class SweepResult:
    """One swept parameter against one or more measured series."""

    name: str
    parameter: str
    values: Sequence[float]
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""

    def points(self, label: str) -> List[Tuple[float, float]]:
        """(parameter, measurement) pairs for one series."""
        return list(zip(self.values, self.series[label]))

    def best(self, label: str) -> float:
        """The parameter value minimising a series."""
        measurements = self.series[label]
        index = min(range(len(measurements)), key=measurements.__getitem__)
        return self.values[index]

    def render(self) -> str:
        table = render_series_table(
            self.parameter,
            {label: self.points(label) for label in self.series},
        )
        chart = LineChart(
            title=self.name, x_label=self.parameter, y_label="value"
        )
        for label in self.series:
            chart.add_series(label, self.points(label))
        parts = [table, "", chart.render()]
        if self.notes:
            parts.extend(["", self.notes])
        return "\n".join(parts)


def _td_base(
    name: str, loss_rate: float, seed: int, quick: bool, **quick_sizes: int
) -> RunConfig:
    """A sweep's named config under Global(loss_rate), seeded throughout."""
    return EXPERIMENT_CONFIGS[name].replace(
        failure=f"global:{loss_rate}",
        scenario_seed=seed,
        seed=seed,
        **(quick_sizes if quick else {}),
    )


def _live_td_cell(args: Tuple) -> Tuple[float, float, float]:
    """(RMS error, control messages, switched nodes) of one TD config.

    The last two live on the scheme, not in the run record, so the cell
    drives the config's own scenario steps. ``policy`` (when given)
    replaces the registered scheme's adaptation policy.
    """
    config, policy = args
    scenario = build_scenario(config)
    if policy is not None:
        entry = SchemeEntry(
            lambda context: build_td(context, policy, config.scheme),
            adaptive=True,
        )
        scenario = dataclasses.replace(scenario, entry=entry)
    scheme, readings = scenario.bind()
    scenario.converge(scheme, readings)
    run = scenario.build_simulator(scheme).run(
        config.epochs, readings, start_epoch=config.start_epoch
    )
    switched = sum(count for _, _, count in scheme.adaptation_log)
    return run.rms_error(), float(scheme.control_messages), float(switched)


def sweep_threshold(
    values: Sequence[float] = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99),
    loss_rate: float = 0.2,
    quick: bool = False,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """The Section 4.1 accuracy/energy dial: % contributing target.

    Higher thresholds grow the delta (more robustness, bigger synopses and
    approximation error at the extreme); lower thresholds shrink it toward
    the lossy tree. The sweep exposes the interior optimum the paper's 90%
    default sits near. ``delta_fraction`` is the delta size each run's last
    measured epoch *recorded* (``extra["delta_size"]``, base station
    included) over the deployment's node count.
    """
    base = _td_base(
        "sweep_td",
        loss_rate,
        seed,
        quick,
        num_sensors=100,
        epochs=30,
        converge_epochs=60,
    )
    reports = (
        Session(jobs=jobs).sweep({"threshold": list(values)}, base).reports()
    )
    result = SweepResult(
        name=f"TD threshold sweep, Global({loss_rate})",
        parameter="threshold",
        values=list(values),
        notes=(
            "Paper default: 0.9. Expect RMS to fall as the threshold rises "
            "until the delta covers the lossy region, then flatten while "
            "delta size keeps growing."
        ),
    )
    result.series["rms_error"] = [report.rms_error() for report in reports]
    result.series["delta_fraction"] = [
        report.result.epochs[-1].extra["delta_size"]
        / (report.num_sensors() + 1)
        for report in reports
    ]
    return result


def sweep_adapt_interval(
    values: Sequence[int] = (1, 5, 10, 20, 50),
    loss_rate: float = 0.2,
    quick: bool = False,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Adaptation cadence vs error and control-message overhead.

    The paper adapts every 10 epochs; frequent adaptation tracks changing
    conditions but costs base-station control broadcasts, rare adaptation
    is cheap but sluggish (the Figure 6(c) convergence-time discussion).
    """
    for value in values:
        if value < 1:  # a config's 0 means "never adapt", not a cadence
            raise ConfigurationError("adapt intervals must be at least 1")
    base = _td_base(
        "sweep_td",
        loss_rate,
        seed,
        quick,
        num_sensors=100,
        epochs=40,
        converge_epochs=60,
    )
    result = SweepResult(
        name=f"TD adaptation-interval sweep, Global({loss_rate})",
        parameter="adapt_interval",
        values=[float(v) for v in values],
        notes=(
            "Paper default: 10 epochs. Control messages fall roughly as "
            "1/interval; under a *steady* failure model the converged RMS "
            "barely moves — cadence matters when conditions change "
            "(Figure 6), which sweep_expansion_heuristic stresses."
        ),
    )
    measurements = parallel_map(
        _live_td_cell,
        [
            (config, None)
            for config in expand_grid(base, adapt_interval=list(values))
        ],
        jobs=jobs,
    )
    result.series["rms_error"] = [rms for rms, _, _ in measurements]
    result.series["control_messages"] = [
        control for _, control, _ in measurements
    ]
    return result


def sweep_expansion_heuristic(
    loss_rate: float = 0.3,
    quick: bool = False,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """The Section 4.2 heuristics under a convergence deadline.

    Every policy gets the *same small* adaptation budget (the config's
    ``converge_epochs``) after a sudden Global(loss) failure and is then
    measured frozen (``adapt_interval=0``); slower-expanding heuristics
    leave more of the network on the lossy tree and show higher RMS.
    Series are indexed by a synthetic ordinal (the table labels carry the
    real names).
    """
    base = _td_base(
        "sweep_heuristic",
        loss_rate,
        seed,
        quick,
        num_sensors=100,
        epochs=30,
        converge_epochs=8,
    )
    policies = [
        ("top-1 (paper base)", TDFinePolicy(expand_cut=1.0)),
        ("max/2 cut (paper heuristic)", TDFinePolicy(expand_cut=0.5)),
        ("top-2", TDFinePolicy(top_k=2)),
        ("top-8", TDFinePolicy(top_k=8)),
        ("damped max/2", DampedPolicy(TDFinePolicy(expand_cut=0.5))),
    ]
    result = SweepResult(
        name=f"TD expansion heuristics, Global({loss_rate}), "
        f"{base.converge_epochs} adaptation rounds",
        parameter="policy_index",
        values=[float(index) for index in range(len(policies))],
        notes="\n".join(
            f"  policy {index}: {label}"
            for index, (label, _) in enumerate(policies)
        )
        + "\nExpect the max/2 cut and large top-k to converge fastest "
        "(lowest RMS within the budget); top-1 to lag.",
    )
    measurements = parallel_map(
        _live_td_cell,
        [(base, policy) for _, policy in policies],
        jobs=jobs,
    )
    result.series["rms_error"] = [rms for rms, _, _ in measurements]
    result.series["switched_nodes"] = [
        switched for _, _, switched in measurements
    ]
    return result


def _split_measurement(args: Tuple) -> Tuple[float, float]:
    """(mean false-negative rate, mean words/node) for one error split."""
    (
        scenario,
        graph,
        stream,
        fraction,
        epsilon,
        support,
        failure,
        seed,
        epochs,
    ) = args
    items_fn = lambda node, epoch: stream.items(node, epoch)
    sensor_ids = scenario.deployment.sensor_ids
    fn_rates = []
    words = []
    for epoch in range(epochs):
        truth_counts = exact_item_counts(stream, sensor_ids, epoch)
        truth = true_frequent(truth_counts, support)
        total_items = sum(truth_counts.values())
        scheme = TributaryDeltaFrequentItems(
            graph,
            epsilon=epsilon,
            support=support,
            total_items_hint=total_items,
            tree_epsilon=fraction * epsilon,
            operator=FMOperator(num_bitmaps=8),
        )
        channel = Channel(scenario.deployment, failure, seed=seed + 13)
        outcome = scheme.run_epoch(epoch, channel, items_fn)
        fn_rates.append(false_negative_rate(truth, outcome.reported))
        words.append(channel.log.words_sent / scenario.deployment.num_sensors)
    return sum(fn_rates) / len(fn_rates), sum(words) / len(words)


def sweep_epsilon_split(
    fractions: Sequence[float] = (0.15, 0.35, 0.5, 0.65, 0.85),
    epsilon: float = 0.01,
    support: float = 0.01,
    loss_rate: float = 0.2,
    quick: bool = False,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """The Section 6.3 error split: eps_a (tree) + eps_b (multi-path) = eps.

    A large tree share leaves the multi-path side almost no budget, so the
    delta's class-based synopses stop pruning and message sizes balloon; a
    large multi-path share prunes tributary summaries hard and risks tree
    error. The sweep measures false negatives and per-node words across
    the split. The knob only bites when eps*N clears typical item counts,
    so the workload is a heavy long-tailed stream (the effect is the
    paper-scale one; at tiny N every split degenerates to 'keep all').
    """
    for fraction in fractions:
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError("fractions must be in (0, 1)")
    sensors = 80 if quick else 200
    epochs = 2 if quick else 6
    scenario = make_synthetic_scenario(num_sensors=sensors, seed=seed)
    tree = build_bushy_tree(scenario.rings, seed=seed)
    failure = GlobalLoss(loss_rate)
    graph = TDGraph(
        scenario.rings, tree, initial_modes_by_level(scenario.rings, 2)
    )
    from repro.datasets.streams import ZipfItemStream

    stream = ZipfItemStream(
        items_per_node=400, universe=800, alpha=1.05, seed=seed
    )

    result = SweepResult(
        name=f"TD-FI error split sweep, eps={epsilon}, Global({loss_rate})",
        parameter="tree_fraction",
        values=list(fractions),
        notes=(
            "Paper default: an even split (0.5). Tree-heavy splits starve "
            "the multi-path budget and inflate delta payloads; expect "
            "words/node to jump at the right edge while false negatives "
            "stay low through the middle."
        ),
    )
    measurements = parallel_map(
        _split_measurement,
        [
            (
                scenario,
                graph,
                stream,
                fraction,
                epsilon,
                support,
                failure,
                seed,
                epochs,
            )
            for fraction in fractions
        ],
        jobs=jobs,
    )
    result.series["false_negative_rate"] = [
        fn_rate for fn_rate, _ in measurements
    ]
    result.series["words_per_node"] = [words for _, words in measurements]
    return result
