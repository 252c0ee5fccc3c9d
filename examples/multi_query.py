#!/usr/bin/env python
"""Multi-query aggregation: one message sweep, three concurrent queries.

Section 4.1's adaptation design is deliberately query-agnostic so that one
delta region can serve "a variety of concurrently running queries". This
example runs Count, Sum and Average *simultaneously* through a single
Tributary-Delta sweep via :class:`CompositeAggregate`, and compares the
energy bill against running the three queries as separate sweeps.

It closes with the epoch-schedule latency budget for the deployment (the
Table 1 latency column, quantified) — multi-query sharing keeps latency at
the single-query level because the per-node transmission count is what the
schedule serialises.

Run:  python examples/multi_query.py
"""

from __future__ import annotations

from repro import (
    AverageAggregate,
    CountAggregate,
    EpochSimulator,
    GlobalLoss,
    SumAggregate,
    TDGraph,
    TributaryDeltaScheme,
    build_bushy_tree,
    initial_modes_by_level,
    make_synthetic_scenario,
)
from repro.aggregates import CompositeAggregate
from repro.core.adaptation import TDFinePolicy
from repro.datasets.streams import UniformReadings
from repro.network.latency import LatencyModel, scheme_latency_ms

LOSS_RATE = 0.15
EPOCHS = 30


def run_td(scenario, tree, aggregate, seed=2):
    graph = TDGraph(
        scenario.rings, tree, initial_modes_by_level(scenario.rings, 1)
    )
    scheme = TributaryDeltaScheme(
        scenario.deployment, graph, aggregate, policy=TDFinePolicy()
    )
    readings = UniformReadings(10, 30, seed=9)
    # Stabilisation: adapt every epoch until the delta matches the loss.
    EpochSimulator(
        scenario.deployment,
        GlobalLoss(LOSS_RATE),
        scheme,
        seed=seed,
        adapt_interval=1,
    ).run(0, readings, warmup=60)
    simulator = EpochSimulator(
        scenario.deployment, GlobalLoss(LOSS_RATE), scheme, seed=seed
    )
    return simulator.run(EPOCHS, readings, start_epoch=100), scheme


def main() -> None:
    scenario = make_synthetic_scenario(num_sensors=220, seed=3)
    tree = build_bushy_tree(scenario.rings, seed=3)
    sensors = scenario.deployment.num_sensors
    print(f"{sensors} sensors, Global({LOSS_RATE}), {EPOCHS} epochs\n")

    # --- one shared sweep for all three queries --------------------------
    composite = CompositeAggregate(
        [CountAggregate(), SumAggregate(), AverageAggregate()], primary=1
    )
    shared_run, shared_scheme = run_td(scenario, tree, composite)
    answers = composite.evaluations_by_name()
    print("shared sweep (CompositeAggregate):")
    readings = UniformReadings(10, 30, seed=9)
    values = [readings(node, EPOCHS + 19) for node in scenario.deployment.sensor_ids]
    truth = [aggregate.exact(values) for aggregate in composite.components]
    contributing = shared_run.mean_contributing_fraction(sensors)
    print(f"  sensors accounted for: {contributing:.0%} (the rest lost to the channel)")
    for (name, value), exact in zip(answers.items(), truth):
        print(f"  {name:8s} estimate {value:10.1f}   truth {exact:10.1f}")
    print(
        f"  energy: {shared_run.energy.total_messages} messages, "
        f"{shared_run.energy.total_words} words, "
        f"{shared_run.energy.total_uj / 1e3:.1f} mJ"
    )

    # --- the same three queries as separate sweeps ------------------------
    separate_messages = 0
    separate_words = 0
    separate_uj = 0.0
    for aggregate in (CountAggregate(), SumAggregate(), AverageAggregate()):
        run, _ = run_td(scenario, tree, aggregate)
        separate_messages += run.energy.total_messages
        separate_words += run.energy.total_words
        separate_uj += run.energy.total_uj
    print("\nthree separate sweeps:")
    print(
        f"  energy: {separate_messages} messages, {separate_words} words, "
        f"{separate_uj / 1e3:.1f} mJ"
    )
    print(
        f"\nsharing saves {1 - shared_run.energy.total_uj / separate_uj:.0%} "
        "of the radio energy (message headers and sweeps amortise; payload "
        "words still add per query)."
    )

    # --- the latency budget ------------------------------------------------
    model = LatencyModel()
    single = scheme_latency_ms(scenario.rings, model)
    print(
        f"\nepoch-schedule latency (ring depth {scenario.rings.depth}): "
        f"{single / 1000:.1f} s per aggregation wave — identical for the "
        "shared sweep, because each node still transmits once per epoch."
    )


if __name__ == "__main__":
    main()
