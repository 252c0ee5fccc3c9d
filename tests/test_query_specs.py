"""One query model: a config's queries resolve once, into named specs.

``RunConfig.query_specs`` is the one answer to "which queries, under which
handles" for all three spellings of a query (``aggregate``, a ``SELECT``
one-liner, a ``queries`` workload). Validation, the run, the report and
the service all read it, so the spellings cannot drift apart:

* a one-entry workload is its single-query form, ``GROUP BY`` included;
* a single-target one-liner is named by its target, in a report and in
  the service alike;
* ``repro sweep --set aggregate=...`` accepts what the registry resolves.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    QuerySpec,
    RunConfig,
    Session,
    config_digest,
    select_specs,
)
from repro.cli import main
from repro.errors import ConfigurationError
from repro.query import ContinuousQuery, parse_query, spec_query
from repro.serialization import to_jsonable
from repro.service.streams import parse_submission

FAST = dict(
    num_sensors=40,
    scenario_seed=11,
    epochs=4,
    converge_epochs=0,
    failure="global:0.2",
    reading="uniform:10:100:0",
)


class TestQuerySpecs:
    def test_aggregate_resolves_to_one_spec_named_by_it(self):
        config = RunConfig(scheme="TAG", aggregate="heavy_hitters:0.1")
        assert config.query_specs == (
            QuerySpec(name="heavy_hitters:0.1", aggregate="heavy_hitters:0.1"),
        )

    def test_one_liner_resolves_per_target(self):
        config = RunConfig(
            scheme="TAG", query="SELECT count, avg, count WHERE value > 5"
        )
        assert config.query_specs == select_specs(config.query)
        assert [spec.name for spec in config.query_specs] == [
            "count",
            "avg",
            "count#2",
        ]
        assert [spec.query for spec in config.query_specs] == [
            "SELECT count WHERE value > 5",
            "SELECT avg WHERE value > 5",
            "SELECT count WHERE value > 5",
        ]

    def test_workload_resolves_as_given(self):
        config = RunConfig(
            scheme="TAG",
            queries=[
                {"name": "n", "aggregate": "count"},
                {"query": "SELECT sum"},
            ],
        )
        assert config.query_specs == config.queries

    def test_query_specs_is_derived_not_encoded(self):
        config = RunConfig(scheme="TAG", query="SELECT avg")
        assert config.query_specs  # resolved and cached
        payload = config.to_jsonable()
        assert "query_specs" not in payload
        assert RunConfig.from_jsonable(payload) == config

    def test_rendered_targets_keep_their_predicate(self):
        # The expansion renders each target; the rendering must read back
        # as the same query, or a one-liner would silently change.
        text = "SELECT avg WHERE value > 12.3456789 WINDOW 3 MAX"
        [spec] = select_specs(text)
        assert parse_query(spec.query) == parse_query(text)
        assert parse_query("SELECT sum WHERE value >= 50").render() == (
            "SELECT sum WHERE value >= 50"
        )

    def test_spec_query_takes_any_spec_shaped_object(self):
        class StandIn:
            name = "s"
            query = None
            aggregate = "sum"

        assert spec_query(StandIn()) == ContinuousQuery(select="sum")
        assert spec_query(QuerySpec(name="s", query="select sum")) == (
            spec_query(StandIn())
        )

    def test_workload_rules_apply_from_two_specs(self):
        with pytest.raises(ConfigurationError, match="GROUP BY"):
            RunConfig(scheme="TAG", query="SELECT avg, sum GROUP BY region:1")
        with pytest.raises(ConfigurationError, match="GROUP BY"):
            RunConfig(
                scheme="TAG",
                queries=[
                    {"name": "g", "query": "SELECT avg GROUP BY region:1"},
                    {"name": "n", "aggregate": "count"},
                ],
            )
        with pytest.raises(ConfigurationError, match="retention"):
            RunConfig(
                scheme="TAG", query="SELECT count, sum", retention="stream"
            )
        single = RunConfig(
            scheme="TAG",
            queries=[{"name": "n", "aggregate": "count"}],
            retention="stream",
        )
        assert [spec.name for spec in single.query_specs] == ["n"]


class TestOneEntryGroupedWorkload:
    def test_runs_as_its_single_form_under_its_own_handle(self):
        grouped = "SELECT avg GROUP BY region:1"
        workload = RunConfig(
            scheme="TAG", queries=[{"name": "g", "query": grouped}], **FAST
        )
        single = RunConfig(scheme="TAG", query=grouped, **FAST)
        assert config_digest(workload) == config_digest(single)
        one, other = Session().run(workload), Session().run(single)
        assert one.query_names() == ["g"]
        assert json.dumps(to_jsonable(one.result), sort_keys=True) == (
            json.dumps(to_jsonable(other.result), sort_keys=True)
        )
        assert one.group_names() == other.group_names()
        assert len(one.group_names()) > 1


class TestOneHandleRule:
    def test_report_and_service_name_a_query_by_its_target(self):
        config = RunConfig(
            scheme="TAG", query="SELECT avg WHERE value > 0", **FAST
        )
        submit, parsed = parse_submission(config.to_json().encode("utf-8"))
        assert parsed == config
        handles = [spec.name for spec in submit.queries]
        assert Session().run(config).query_names() == handles == ["avg"]

    def test_select_body_resolves_like_a_config(self):
        text = "SELECT count, avg WHERE value > 20"
        submit, config = parse_submission(text.encode("utf-8"))
        assert config is None
        config_specs = RunConfig(scheme="TAG", query=text).query_specs
        assert submit.queries == config_specs


class TestSweepAggregate:
    ARGS = [
        "sweep",
        "--grid",
        "failure=global:0.2",
        "--set",
        "num_sensors=20",
        "--set",
        "epochs=2",
        "--set",
        "converge_epochs=2",
    ]

    def test_registry_aggregates_are_accepted(self, capsys):
        assert main(self.ARGS + ["--set", "aggregate=avg"]) == 0
        assert "TAG" in capsys.readouterr().out

    def test_unknown_aggregate_is_a_configuration_error(self, capsys):
        assert main(self.ARGS + ["--set", "aggregate=nope"]) == 2
        assert "invalid sweep configuration" in capsys.readouterr().err
