"""Tributary-Delta: efficient and robust aggregation in sensor network streams.

A full reproduction of Manjhi, Nath & Gibbons (SIGMOD 2005). The package
combines tree-based aggregation (TAG) and multi-path synopsis diffusion (SD)
into the adaptive Tributary-Delta scheme, plus the paper's frequent-items
algorithms (Min Total-load, Min Max-load, Hybrid, the multi-path class-based
algorithm, and their Tributary-Delta combination).

Quickstart — one declarative config, one session; a query *workload* runs
a whole portfolio through one simulator pass over one channel::

    from repro import RunConfig, Session

    config = RunConfig(scheme="TD", failure="global:0.2",
                       num_sensors=200, epochs=50,
                       queries=[
                           {"name": "population", "aggregate": "count"},
                           {"name": "hot-mean",
                            "query": "SELECT avg WHERE value > 20 WINDOW 5 MEAN"},
                       ])
    report = Session().run(config)
    print(report.query("population").rms_error())
    print(report.query("hot-mean").estimates[:3])

Every query in a workload observes byte-identical delivery draws (the
channel's draws are keyed hashes, independent of payload), payloads ride
piggybacked in shared messages with combined word billing, and each
query's estimates match its standalone run under the same seed — the
paper's paired-comparison methodology extended from schemes to queries.
Drop ``queries`` for a classic single-query run (``aggregate="sum"`` or
``query="SELECT count, sum"`` — the multi-target one-liner expands into a
workload).

Aggregates slice **spatially** too — a ``GROUP BY`` one-liner answers
every region of a hierarchy in the same pass, per-region partial cubes
riding the scheme's ordinary messages::

    report = Session().run(RunConfig(
        scheme="TD", failure="global:0.3", reading="uniform:10:100:0",
        query="SELECT avg GROUP BY region:2"))
    for path in report.group_names():        # "r/0/3", "r/1/0", ...
        print(path, report.group_rms_error(path))

``region`` is the built-in quadtree (``grid`` the 9-way variant; add
your own via ``register_regions``), ``:2`` the reporting depth, and an
optional third token a per-message word budget under which deep regions
coarsen into their ancestors instead of overflowing the message
(multiresolution cubes). One grouped pass bills a fraction of the words
of per-region standalone runs — ``repro describe groupby_regions``
shows the named experiment.

The same engine also runs as a **long-lived service**: one scenario
executes continuously in epoch blocks and clients subscribe over HTTP
while it runs — queries are admitted against per-message word budgets,
folded into the live workload with subexpression sharing (two clients
asking ``avg`` and ``count`` share one ``count`` slot, bit-exactly), and
answered as a chunked NDJSON stream, one line per epoch::

    repro serve --port 8377 --checkpoint-dir ckpt &
    curl -sN -X POST --data 'SELECT avg, count' \\
        http://127.0.0.1:8377/queries       # streams epoch records
    curl -s http://127.0.0.1:8377/stats     # admission/planner/cache counters
    curl -s -X POST http://127.0.0.1:8377/shutdown   # drain + checkpoint

In-process, :class:`repro.service.AggregationServer` wraps the same
engine (see :mod:`repro.service`); ``POST /run`` executes one-shot
serialized configs through a shared thread-safe :class:`Session` with a
bounded result LRU.

Every name in a config (scheme, aggregate, failure model, topology,
workload, churn model, frequent summary) resolves through the string-keyed
registries of :mod:`repro.registry`; ``register_scheme`` /
``register_aggregate`` / ``register_summary`` / ``register_failure_model``
/ ``register_topology`` / ``register_dataset`` / ``register_churn`` extend
the system, and ``available()`` lists what's installed. The Section 6
summaries are first-class query targets: ``aggregate="heavy_hitters:0.05"``
or ``SELECT quantiles:0.05:0.9`` runs them through any scheme. Node churn
is one more config knob — ``RunConfig(...,
churn="blackout:100:0:0:10:10:300")`` kills the paper's regional quadrant
mid-run and lets tree repair and re-ringing absorb it. Configs
round-trip through JSON (``RunConfig.from_json(config.to_json())``), sweep
as grids (``Session.sweep``), and back the CLI (``repro run-config``,
``repro describe``) — one schema behind every entry point.

The underlying building blocks (schemes, simulator, topologies, sketches)
remain importable for hand-wiring; ``Session.run`` is byte-identical to
assembling the same run manually, by test.
"""

from repro.aggregates import (
    Aggregate,
    AverageAggregate,
    CompositeAggregate,
    CountAggregate,
    DistinctCountAggregate,
    HeavyHittersAggregate,
    MomentsAggregate,
    MaxAggregate,
    MinAggregate,
    QuantilesAggregate,
    SumAggregate,
    UniformSampleAggregate,
    WorkloadAggregate,
    WorkloadReadings,
    quantile_from_sample,
)
from repro.core import (
    DampedPolicy,
    Mode,
    SynopsisDiffusionScheme,
    TagScheme,
    TDCoarsePolicy,
    TDFinePolicy,
    TDGraph,
    TributaryDeltaScheme,
    initial_modes_by_level,
)
from repro.datasets import (
    ConstantReadings,
    DiurnalLightReadings,
    DisjointUniformItemStream,
    LabDataScenario,
    LightItemStream,
    UniformReadings,
    ZipfItemStream,
    make_synthetic_scenario,
)
from repro.api import (
    QuerySpec,
    QueryWorkload,
    RunConfig,
    RunReport,
    Session,
    SweepReport,
    config_digest,
    describe_experiment,
    expand_grid,
    run_config_result,
    split_workload_result,
)
from repro.frequent import TributaryDeltaQuantiles
from repro.query import ContinuousQuery, parse_queries, parse_query
from repro.multipath import FMSketch, KMVSketch
from repro.registry import (
    available,
    build_regions,
    register_aggregate,
    register_churn,
    register_dataset,
    register_failure_model,
    register_regions,
    register_scheme,
    register_summary,
    register_topology,
)
from repro.spatial import (
    GroupedAggregate,
    RegionFilteredAggregate,
    RegionHierarchy,
    grid_hierarchy,
    quadtree_hierarchy,
)
from repro.network import (
    Channel,
    Deployment,
    DiscRadio,
    DynamicMembership,
    EpochSimulator,
    FailureSchedule,
    LifetimeChurn,
    RandomDeaths,
    RegionalBlackout,
    ScheduledChurn,
    GlobalLoss,
    LatencyModel,
    NoLoss,
    RegionalLoss,
    RingsTopology,
)
from repro.tree import (
    Tree,
    build_bushy_tree,
    build_tag_tree,
    domination_factor,
    tree_from_height_profile,
)

__version__ = "1.0.0"

__all__ = [
    "QuerySpec",
    "QueryWorkload",
    "RunConfig",
    "RunReport",
    "Session",
    "SweepReport",
    "config_digest",
    "describe_experiment",
    "expand_grid",
    "run_config_result",
    "split_workload_result",
    "available",
    "build_regions",
    "register_aggregate",
    "register_churn",
    "register_dataset",
    "register_failure_model",
    "register_regions",
    "register_scheme",
    "register_summary",
    "register_topology",
    "GroupedAggregate",
    "RegionFilteredAggregate",
    "RegionHierarchy",
    "grid_hierarchy",
    "quadtree_hierarchy",
    "DynamicMembership",
    "LifetimeChurn",
    "RandomDeaths",
    "RegionalBlackout",
    "ScheduledChurn",
    "Aggregate",
    "AverageAggregate",
    "CompositeAggregate",
    "CountAggregate",
    "DistinctCountAggregate",
    "HeavyHittersAggregate",
    "MomentsAggregate",
    "MaxAggregate",
    "MinAggregate",
    "QuantilesAggregate",
    "SumAggregate",
    "UniformSampleAggregate",
    "WorkloadAggregate",
    "WorkloadReadings",
    "quantile_from_sample",
    "TributaryDeltaQuantiles",
    "ContinuousQuery",
    "parse_queries",
    "parse_query",
    "DampedPolicy",
    "Mode",
    "SynopsisDiffusionScheme",
    "TagScheme",
    "TDCoarsePolicy",
    "TDFinePolicy",
    "TDGraph",
    "TributaryDeltaScheme",
    "initial_modes_by_level",
    "ConstantReadings",
    "DiurnalLightReadings",
    "DisjointUniformItemStream",
    "LabDataScenario",
    "LightItemStream",
    "UniformReadings",
    "ZipfItemStream",
    "make_synthetic_scenario",
    "FMSketch",
    "KMVSketch",
    "Channel",
    "Deployment",
    "DiscRadio",
    "EpochSimulator",
    "FailureSchedule",
    "GlobalLoss",
    "LatencyModel",
    "NoLoss",
    "RegionalLoss",
    "RingsTopology",
    "Tree",
    "build_bushy_tree",
    "build_tag_tree",
    "domination_factor",
    "tree_from_height_profile",
    "__version__",
]
