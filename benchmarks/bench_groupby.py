"""GROUP BY amortization gate: one grouped pass vs per-region runs.

The spatial GROUP BY claim, measured: answering every region of a
hierarchy in **one** grouped pass (per-region cubes piggybacking in the
scheme's ordinary messages) must bill strictly fewer channel words than
running one standalone :class:`~repro.spatial.RegionFilteredAggregate`
simulation per region — the multi-query economics of the workload engine,
extended spatially. Both sides run the identical scenario, scheme and
channel seed, so the comparison is paired (same delivery draws).

Writes ``results/groupby_amortization.json`` and exits nonzero when the
grouped pass fails to amortize — the CI ``groupby-smoke`` job uses this
as a hard gate. Run standalone::

    PYTHONPATH=src python benchmarks/bench_groupby.py [--quick]
        [--scheme TD] [--spec region:2] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULT_NAME = "groupby_amortization.json"


def run_benchmark(
    scheme: str, spec: str, quick: bool
) -> dict:
    from repro.aggregates.average import AverageAggregate
    from repro.api import RunConfig, build_scenario
    from repro.registry import build_regions
    from repro.spatial import GroupedAggregate, RegionFilteredAggregate

    config = RunConfig(
        scheme=scheme,
        num_sensors=60 if quick else 200,
        scenario_seed=11,
        epochs=5 if quick else 30,
        converge_epochs=0 if quick else 60,
        failure="global:0.3",
        reading="uniform:10:100:0",
    )
    scenario = build_scenario(config)
    hierarchy, depth, budget = build_regions(
        spec, scenario.topology.deployment
    )

    def measure(aggregate) -> int:
        scheme_instance = scenario.build_scheme(aggregate)
        scenario.converge(scheme_instance, scenario.source)
        result = scenario.build_simulator(scheme_instance).run(
            config.epochs, scenario.source, start_epoch=config.start_epoch
        )
        return result.energy.total_words

    grouped_words = measure(
        GroupedAggregate(
            AverageAggregate(), hierarchy, depth, word_budget=budget, spec=spec
        )
    )

    regions = [
        path
        for path in hierarchy.regions_at(depth)
        if set(hierarchy.members(path)) - {0}
    ]
    per_region_words = {}
    for path in regions:
        per_region_words[path] = measure(
            RegionFilteredAggregate(AverageAggregate(), hierarchy, path)
        )
    standalone_words = sum(per_region_words.values())

    return {
        "benchmark": "groupby",
        "quick": quick,
        "scheme": scheme,
        "spec": spec,
        "num_sensors": config.num_sensors,
        "epochs": config.epochs,
        "regions": len(regions),
        "grouped_words": grouped_words,
        "standalone_words_total": standalone_words,
        "standalone_words_per_region": per_region_words,
        "amortization_factor": (
            standalone_words / grouped_words if grouped_words else None
        ),
        "amortized": grouped_words < standalone_words,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small deployment, few epochs (CI gate)")
    parser.add_argument("--scheme", default="TD")
    parser.add_argument("--spec", default="region:2",
                        help="region spec NAME[:DEPTH[:BUDGET]]")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args()

    record = run_benchmark(args.scheme, args.spec, args.quick)
    out = args.out or (
        pathlib.Path(__file__).parent / "results" / RESULT_NAME
    )
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        f"grouped pass: {record['grouped_words']} words; "
        f"{record['regions']} standalone runs: "
        f"{record['standalone_words_total']} words "
        f"(x{record['amortization_factor']:.2f})"
    )
    if not record["amortized"]:
        print(
            "FAIL: the grouped pass did not bill fewer words than the "
            "per-region standalone runs",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
