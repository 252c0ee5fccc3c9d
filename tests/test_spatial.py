"""Tests for the spatial GROUP BY subsystem: regions, cubes, schemes.

Covers the region layer (hierarchy construction, path algebra, spec
parsing), the grouped aggregate (cell-wise merge, normalization,
multiresolution coarsening, word billing), grouped runs over all three
schemes through the declarative API (including the blocked/per-epoch
byte-identity and the loss-0 standalone equivalence), the amortization
claim (one grouped pass bills fewer words than per-region standalone
runs), and the service planner's grouped slot sharing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregates.average import AverageAggregate
from repro.aggregates.count import CountAggregate
from repro.api import RunConfig, Session, build_scenario, config_digest
from repro.errors import ConfigurationError
from repro.registry import build_aggregate, build_regions
from repro.serialization import to_jsonable
from repro.spatial import (
    GroupedAggregate,
    RegionFilteredAggregate,
    grid_hierarchy,
    is_region_prefix,
    parse_region_spec,
    quadtree_hierarchy,
    region_ancestor,
    region_depth,
    region_parent,
)

SCHEMES = ["TAG", "SD", "TD", "TD-Coarse"]


def fast_config(**overrides) -> RunConfig:
    base = dict(
        scheme="TAG",
        num_sensors=60,
        scenario_seed=11,
        epochs=4,
        converge_epochs=0,
        failure="none",
        reading="uniform:10:100:0",
    )
    base.update(overrides)
    return RunConfig(**base)


# -- the region layer ------------------------------------------------------


class TestRegionAlgebra:
    def test_parse_region_spec_defaults(self):
        assert parse_region_spec("region") == ("region", 1, None)
        assert parse_region_spec("region:2") == ("region", 2, None)
        assert parse_region_spec("grid:3:40") == ("grid", 3, 40)

    @pytest.mark.parametrize(
        "bad", ["", ":2", "region:zz", "region:-1", "region:99",
                "region:2:1", "region:2:3:4"]
    )
    def test_parse_region_spec_rejects(self, bad):
        with pytest.raises(ConfigurationError) as err:
            parse_region_spec(bad)
        message = str(err.value)
        # Always actionable: the message names the offending spec and
        # either the grammar or the violated bound.
        assert repr(bad) in message or "GROUP BY spec" in message
        assert "NAME[:DEPTH[:BUDGET]]" in message or "between" in message \
            or "at least" in message

    def test_path_helpers(self):
        assert region_depth("r") == 0
        assert region_depth("r/3/0") == 2
        assert region_parent("r/3/0") == "r/3"
        assert region_ancestor("r/3/0", 1) == "r/3"
        assert is_region_prefix("r/3", "r/3/0")
        assert is_region_prefix("r/3", "r/3")
        assert not is_region_prefix("r/3", "r/30")


class TestRegionHierarchy:
    def test_quadtree_partitions_each_depth(self, small_scenario):
        hierarchy = quadtree_hierarchy(small_scenario.deployment)
        sensors = set(small_scenario.deployment.sensor_ids) | {0}
        for depth in (0, 1, 2, 3):
            regions = hierarchy.regions_at(depth)
            seen: set = set()
            for region in regions:
                members = set(hierarchy.members(region))
                assert not members & seen  # disjoint
                seen |= members
            assert seen == sensors  # covering
        assert hierarchy.regions_at(0) == ["r"]

    def test_region_of_is_ancestor_consistent(self, small_scenario):
        hierarchy = quadtree_hierarchy(small_scenario.deployment)
        for node in list(small_scenario.deployment.sensor_ids)[:10]:
            deep = hierarchy.region_of(node, 3)
            assert hierarchy.region_of(node, 1) == region_ancestor(deep, 1)

    def test_grid_uses_nine_way_split(self, small_scenario):
        hierarchy = grid_hierarchy(small_scenario.deployment)
        digits = {
            path.split("/")[1] for path in hierarchy.regions_at(1)
        }
        assert digits <= {str(d) for d in range(9)}
        assert len(digits) > 4  # a 60-node field occupies >4 of 9 cells

    def test_depth_and_node_validation(self, small_scenario):
        hierarchy = quadtree_hierarchy(small_scenario.deployment, max_depth=2)
        with pytest.raises(ConfigurationError):
            hierarchy.region_of(1, 3)
        with pytest.raises(ConfigurationError):
            hierarchy.region_of(10**9, 1)


# -- the grouped aggregate --------------------------------------------------


class TestGroupedAggregate:
    def test_cell_wise_merge(self, small_scenario):
        hierarchy = quadtree_hierarchy(small_scenario.deployment)
        grouped = GroupedAggregate(CountAggregate(), hierarchy, 1)
        nodes = list(small_scenario.deployment.sensor_ids)
        cube = grouped.tree_empty()
        for node in nodes:
            cube = grouped.tree_merge(cube, grouped.tree_local(node, 0, 1.0))
        assert grouped.tree_eval(cube) == float(len(nodes))
        groups = grouped.last_group_evaluations
        assert sum(groups.values()) == float(len(nodes))
        for path, count in groups.items():
            members = set(hierarchy.members(path)) - {0}
            assert count == float(len(members))

    def test_normalization_folds_into_present_ancestor(self):
        grouped = GroupedAggregate(
            CountAggregate(), _StubHierarchy(), depth=2
        )
        cube = grouped.tree_merge({"r/0": 3}, {"r/0/1": 2, "r/1/0": 4})
        assert cube == {"r/0": 5, "r/1/0": 4}

    def test_coarsening_respects_budget(self):
        grouped = GroupedAggregate(
            CountAggregate(), _StubHierarchy(), depth=2, word_budget=5
        )
        cube = grouped.tree_merge(
            {"r/0/0": 1, "r/0/1": 2}, {"r/1/0": 3, "r/1/1": 4}
        )
        # 4 leaf cells would bill 1 + 4*2 = 9 words; the budget of 5
        # admits at most two cells — deepest fold into their parents.
        assert grouped.tree_words(cube) <= 5
        assert sum(cube.values()) == 10  # nothing lost, only coarsened
        assert all(region_depth(path) <= 1 for path in cube)

    def test_word_billing(self):
        grouped = GroupedAggregate(CountAggregate(), _StubHierarchy(), 1)
        assert grouped.tree_words({}) == 1
        assert grouped.tree_words({"r/0": 4}) == 1 + (1 + 1)
        assert grouped.tree_words({"r/0": 4, "r/1": 1}) == 1 + 2 * 2

    def test_ungroupable_inner_rejected(self):
        quantiles = build_aggregate("quantiles:0.05:0.5")
        with pytest.raises(ConfigurationError):
            GroupedAggregate(quantiles, _StubHierarchy(), 1)

    def test_no_nested_group_by(self):
        grouped = GroupedAggregate(CountAggregate(), _StubHierarchy(), 1)
        assert not grouped.supports_group_by()

    def test_exact_records_per_group_truths(self):
        grouped = GroupedAggregate(CountAggregate(), _StubHierarchy(), 1)
        readings = np.ones(3)
        assert grouped.exact_rows(readings[None], [5, 6, 7]) == [
            (3.0, {"group_truths": {"r/0": 2.0, "r/1": 1.0}})
        ]


class _StubHierarchy:
    """Minimal hierarchy stand-in for unit tests of the cube algebra:
    sensors 5 and 6 sit in region r/0, sensor 7 in r/1."""

    name = "region"
    max_depth = 8
    _PATHS = {5: "r/0", 6: "r/0", 7: "r/1"}

    def nodes(self):
        return sorted(self._PATHS)

    def region_of(self, node, depth):
        return self._PATHS[node]


# -- grouped runs over the schemes -----------------------------------------


class TestGroupedRuns:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_per_region_results_all_schemes(self, scheme):
        config = fast_config(
            scheme=scheme, query="SELECT avg GROUP BY region:2"
        )
        report = Session().run(config)
        names = report.group_names()
        assert names and all(name.startswith("r/") for name in names)
        assert report.is_grouped()
        # Under no loss every scheme's tree path is exact per group.
        for name in names:
            estimates = report.group_estimates(name)
            truths = report.group_truths(name)
            assert len(estimates) == config.epochs
            if scheme == "TAG":
                assert estimates == truths

    @pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
    def test_blocked_and_per_epoch_byte_identical(self, scheme):
        # Five sensors die mid-run: the epoch-4 boundary repairs the tree.
        churn = dict(
            churn="deaths:3:5", churn_interval=2, epochs=8, start_epoch=0
        )
        for query, overrides in (
            ("SELECT avg GROUP BY region:2", {}),
            ("SELECT avg GROUP BY region:2 WINDOW 3", {}),
            ("SELECT sum WHERE value > 50 GROUP BY region:2", {}),
            ("SELECT max GROUP BY region:2", {}),
            ("SELECT avg GROUP BY region:2", churn),
        ):
            config = fast_config(
                scheme=scheme, failure="global:0.3", query=query, **overrides
            )
            blocked = Session().run(config)
            stepped = Session().run(config.replace(use_batch=False))
            assert repr(to_jsonable(blocked.result)) == repr(
                to_jsonable(stepped.result)
            ), query
            assert blocked.group_names() == stepped.group_names(), query
            for name in blocked.group_names():
                for series in ("group_estimates", "group_truths"):
                    assert repr(getattr(blocked, series)(name)) == repr(
                        getattr(stepped, series)(name)
                    ), (query, name, series)

    def test_loss0_groups_match_standalone_filtered_runs(self):
        config = fast_config()
        scenario = build_scenario(config)
        hierarchy, depth, _ = build_regions(
            "region:1", scenario.topology.deployment
        )
        grouped = GroupedAggregate(AverageAggregate(), hierarchy, depth)
        scheme = scenario.build_scheme(grouped)
        result = scenario.build_simulator(scheme).run(
            config.epochs, scenario.source, start_epoch=config.start_epoch
        )
        grouped_series = {
            path: [
                epoch.extra["group_estimates"].get(path)
                for epoch in result.epochs
            ]
            for path in result.epochs[0].extra["group_estimates"]
        }
        for path in grouped_series:
            standalone = RegionFilteredAggregate(AverageAggregate(), hierarchy, path)
            alone = scenario.build_simulator(
                scenario.build_scheme(standalone)
            ).run(config.epochs, scenario.source, start_epoch=config.start_epoch)
            assert grouped_series[path] == [
                epoch.estimate for epoch in alone.epochs
            ]
            # ... and both equal the loss-free truth.
            assert grouped_series[path] == [
                epoch.true_value for epoch in alone.epochs
            ]

    def test_group_truths_recorded(self):
        report = Session().run(
            fast_config(query="SELECT count GROUP BY region:1")
        )
        for name in report.group_names():
            truths = set(report.group_truths(name))
            assert len(truths) == 1  # static membership, constant count
            assert truths.pop() > 0

    def test_group_by_off_keeps_legacy_payload(self):
        config = fast_config()
        payload = config.to_jsonable()
        assert "group_by" not in payload
        assert RunConfig.from_jsonable(payload) == config
        report = Session().run(config)
        assert not report.is_grouped()
        assert all(
            "group_estimates" not in epoch.extra
            and "group_truths" not in epoch.extra
            for epoch in report.result.epochs
        )

    def test_grouped_digest_differs_and_round_trips(self):
        plain = fast_config()
        grouped = plain.replace(query="SELECT count GROUP BY region:1")
        assert config_digest(plain) != config_digest(grouped)
        assert RunConfig.from_json(grouped.to_json()) == grouped
        assert grouped.to_jsonable() == dict(
            plain.to_jsonable(), query="SELECT count GROUP BY region:1"
        )

    def test_legacy_group_by_key_names_the_clause(self):
        """The one spelling of grouping is the query's GROUP BY clause."""
        payload = dict(fast_config().to_jsonable(), group_by="region:1")
        with pytest.raises(ConfigurationError) as err:
            RunConfig.from_jsonable(payload)
        assert "GROUP BY region:1" in str(err.value)
        payload["group_by"] = None
        assert RunConfig.from_jsonable(payload) == fast_config()


# -- amortization ----------------------------------------------------------


class TestAmortization:
    def test_one_grouped_pass_bills_fewer_words(self):
        """The headline economics: one grouped run vs per-region runs."""
        config = fast_config(epochs=3)
        scenario = build_scenario(config)
        hierarchy, depth, _ = build_regions(
            "region:2", scenario.topology.deployment
        )
        grouped = GroupedAggregate(AverageAggregate(), hierarchy, depth)
        result = scenario.build_simulator(
            scenario.build_scheme(grouped)
        ).run(config.epochs, scenario.source, start_epoch=config.start_epoch)
        grouped_words = result.energy.total_words

        standalone_words = 0
        regions = [
            path
            for path in hierarchy.regions_at(depth)
            if set(hierarchy.members(path)) - {0}
        ]
        assert len(regions) > 1
        for path in regions:
            alone = scenario.build_simulator(
                scenario.build_scheme(
                    RegionFilteredAggregate(AverageAggregate(), hierarchy, path)
                )
            ).run(config.epochs, scenario.source, start_epoch=config.start_epoch)
            standalone_words += alone.energy.total_words
        assert grouped_words < standalone_words


# -- service integration ---------------------------------------------------


class TestServiceGrouping:
    class _Spec:
        def __init__(self, name, query):
            self.name = name
            self.query = query
            self.aggregate = None

    def test_grouped_avg_decomposes_into_shared_grouped_slots(self):
        from repro.service.admission import AdmissionController
        from repro.service.planner import QueryPlanner

        scenario = build_scenario(fast_config())
        deployment = scenario.topology.deployment
        planner = QueryPlanner(scenario.source, deployment=deployment)
        admission = AdmissionController(
            scenario.source, deployment=deployment
        )
        planned = planner.plan(
            [self._Spec("gavg", "SELECT avg GROUP BY region:1")]
        )
        [pq] = planned
        assert pq.keys == (
            "SELECT sum GROUP BY region:1",
            "SELECT count GROUP BY region:1",
        )
        words = {
            part.render(): admission.estimate_words(part)
            for part in planner.new_parts(planned)
        }
        assert all(estimate >= 3 for estimate in words.values())
        planner.acquire(planned, words)
        # A grouped sum subscription shares the existing grouped slot.
        second = planner.plan(
            [self._Spec("gsum", "SELECT sum GROUP BY region:1")]
        )
        assert planner.new_parts(second) == []
        planner.acquire(second)
        assert planner.shared_acquires == 1
        workload, readings = planner.build_workload()
        value = readings(3, 0)
        partial = workload.tree_local(3, 0, value)
        assert all(isinstance(cell, dict) for cell in partial)
