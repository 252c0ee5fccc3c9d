"""Multi-query workloads: one network run serves N concurrent queries.

The load-bearing suites:

* :class:`TestSingleQueryByteIdentity` — a one-entry workload IS its
  single-query run: same engine path, results byte-identical to the seed
  engine (golden digests recorded from commit 4893711), same
  ``config_digest`` (the shared result cache stays warm across the v2->v3
  schema migration).
* :class:`TestWorkloadByteIdentity` — the acceptance scenario: a 4-query
  workload (count, sum, avg-with-WHERE, heavy_hitters) through one
  simulator pass, each query's estimates and truths byte-identical to its
  standalone run under the same seed (TAG and SD exactly; TD exactly for
  every query whose standalone run drives adaptation from the shared
  contributing piggyback — i.e. all but count-like aggregates, whose
  standalone runs read their own count synopsis instead).
* :class:`TestSharedChannel` — all queries of a workload observe identical
  delivery sets (per-epoch transmission/delivery/drop counts match every
  standalone run's: delivery draws are payload-independent keyed hashes).
* :class:`TestBlockedEquivalence` — the epoch-blocked engine and the
  per-epoch loop agree per query on a multi-query workload (one
  ``DeliveryPlan`` serves all queries).
* :class:`TestStagedObjectWave` — the object wave's three stages (every
  tributary, one frontier conversion per block, the delta) equal the
  scalar oracle byte for byte, with and without faults.
* :class:`TestWindowChurn` — the regression suite for windowed streams
  under churn: a node that dies mid-window stops contributing, and a
  rejoining node's window restarts instead of spanning readings it never
  sensed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import (
    CONFIG_SCHEMA_VERSION,
    QuerySpec,
    QueryWorkload,
    RunConfig,
    RunReport,
    Session,
    build_scenario,
    config_digest,
    describe_experiment,
    run_config_result,
    split_workload_result,
)
from repro import serialization
from repro.aggregates.workload import WorkloadAggregate
from repro.chaos.checkpoint import Checkpointer
from repro.core.adaptation import TDFinePolicy
from repro.core.graph import TDGraph, initial_modes_by_level
from repro.core.td_scheme import TributaryDeltaScheme
from repro.errors import ConfigurationError, SimulationKilled
from repro.multipath.fm import _EXACT_INSERT_LIMIT, FMSketch
from repro.query import WindowedReadings, parse_queries, parse_query
from repro.registry import available, build_aggregate

QUICK = dict(
    num_sensors=40, epochs=5, converge_epochs=8, scenario_seed=4, seed=1
)

#: The acceptance portfolio: scalar pair + predicated windowed average +
#: a Section 6 heavy-hitters summary.
PORTFOLIO = (
    {"name": "count", "aggregate": "count"},
    {"name": "sum", "aggregate": "sum"},
    {"name": "hot", "query": "SELECT avg WHERE value > 50 WINDOW 5 MEAN"},
    {"name": "heavy", "aggregate": "heavy_hitters:0.1"},
)


def workload_config(scheme: str, queries=PORTFOLIO, **overrides) -> RunConfig:
    settings = dict(
        scheme=scheme,
        failure="global:0.3",
        reading="uniform:10:100:0",
        queries=list(queries),
        **QUICK,
    )
    settings.update(overrides)
    return RunConfig(**settings)


def standalone_config(scheme: str, spec, **overrides) -> RunConfig:
    settings = dict(
        scheme=scheme,
        failure="global:0.3",
        reading="uniform:10:100:0",
        aggregate=spec.get("aggregate", "count"),
        query=spec.get("query"),
        **QUICK,
    )
    settings.update(overrides)
    return RunConfig(**settings)


def _digest(result) -> str:
    """The full result fingerprint (same recipe as tests/test_churn.py)."""
    payload = repr(
        (
            [e.estimate for e in result.epochs],
            [e.contributing for e in result.epochs],
            [e.contributing_estimate for e in result.epochs],
            [
                (
                    e.log.transmissions,
                    e.log.deliveries,
                    e.log.drops,
                    e.log.words_sent,
                    e.log.messages_sent,
                )
                for e in result.epochs
            ],
            sorted(result.energy.per_node_uj.items()),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: Seed-engine fingerprints (recorded from commit 4893711; identical to the
#: pre-workload GOLDEN_DIGESTS of tests/test_churn.py for these configs).
GOLDEN_DIGESTS = {
    "TAG": "39662a49fa19947f10d855cbd64d2aa3b9661988c90e3f98d766f817569382d8",
    "SD": "bbd4ddc5bcef4f7fee16b53302fd12cb7b32a09e2abc5f1260837b511200fea5",
    "TD": "cf624e4744f584e6c325388b5386a9ebcd198b20ee0e1d1f1bc64730e48bcf15",
}


class TestSingleQueryByteIdentity:
    """A one-entry workload runs the seed engine path, byte for byte."""

    @pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
    def test_golden_digests(self, scheme):
        config = RunConfig(
            scheme=scheme,
            failure="global:0.3",
            num_sensors=60,
            epochs=12,
            converge_epochs=10,
            reading="uniform:10:100:0",
            seed=1,
            scenario_seed=0,
            queries=[{"name": "the-sum", "aggregate": "sum"}],
        )
        result = Session().run(config).result
        assert _digest(result) == GOLDEN_DIGESTS[scheme]

    def test_digest_matches_v2_equivalent(self):
        workload = RunConfig(
            scheme="TAG",
            queries=[{"name": "anything", "aggregate": "sum"}],
            **QUICK,
        )
        plain = RunConfig(scheme="TAG", aggregate="sum", **QUICK)
        assert config_digest(workload) == config_digest(plain)
        # The name is a report handle, not an execution knob.
        renamed = workload.replace(
            queries=[{"name": "other", "aggregate": "sum"}]
        )
        assert config_digest(renamed) == config_digest(plain)

    def test_one_query_report_uses_spec_name(self):
        config = RunConfig(
            scheme="TAG",
            queries=[{"name": "population", "aggregate": "count"}],
            **QUICK,
        )
        report = Session().run(config)
        assert report.query_names() == ["population"]
        assert report.query("population") is report.result


class TestSchemaMigration:
    """One encoding rule; older payloads load unchanged; errors actionable."""

    def test_workload_free_configs_still_encode_v2(self):
        # The id predates the single rule: a default-valued field is
        # absent from the payload, whatever version introduced it.
        payload = RunConfig(scheme="TAG", **QUICK).to_jsonable()
        assert payload["version"] == CONFIG_SCHEMA_VERSION
        assert "queries" not in payload
        assert "seed" not in payload  # QUICK sets it to the default
        assert payload["num_sensors"] == QUICK["num_sensors"]

    def test_workload_configs_encode_v3_and_round_trip(self):
        config = workload_config("TAG")
        payload = config.to_jsonable()
        assert payload["version"] == CONFIG_SCHEMA_VERSION
        assert "aggregate" not in payload  # left at its default
        assert [entry["name"] for entry in payload["queries"]] == [
            "count", "sum", "hot", "heavy",
        ]
        assert RunConfig.from_json(config.to_json()) == config

    def test_v2_payload_loads_unchanged(self):
        v2 = {
            "type": "run-config",
            "version": 2,
            "scheme": "SD",
            "aggregate": "sum",
            "epochs": 7,
        }
        config = RunConfig.from_jsonable(v2)
        assert config.queries is None
        assert config.aggregate == "sum"
        assert config == RunConfig(scheme="SD", aggregate="sum", epochs=7)

    def test_malformed_queries_are_actionable(self):
        cases = [
            ("a string", "list"),
            ([], "empty"),
            ([42], "queries\\[0\\]"),
            ([{"name": "x"}], "exactly one"),
            (
                [{"name": "x", "aggregate": "count", "query": "SELECT sum"}],
                "exactly one",
            ),
            ([{"name": "x", "aggregates": "count"}], "unknown keys"),
            ([{"name": "x", "aggregate": "nope"}], "available"),
            (
                [
                    {"name": "x", "aggregate": "count"},
                    {"name": "x", "aggregate": "sum"},
                ],
                "duplicate",
            ),
            ([{"name": "x", "query": "SELECT count, sum"}], "targets"),
            ([{"name": 7, "aggregate": "count"}], "name"),
        ]
        for queries, match in cases:
            with pytest.raises(ConfigurationError, match=match):
                RunConfig(scheme="TAG", queries=queries, **QUICK)

    def test_query_and_queries_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="both"):
            RunConfig(
                scheme="TAG",
                query="SELECT count",
                queries=[{"name": "s", "aggregate": "sum"}],
                **QUICK,
            )

    def test_aggregate_and_queries_are_mutually_exclusive(self):
        """A non-default 'aggregate' beside 'queries' would be silently
        ignored — reject it like the 'query' combination."""
        with pytest.raises(ConfigurationError, match="both"):
            RunConfig(
                scheme="TAG",
                aggregate="sum",
                queries=[{"name": "c", "aggregate": "count"}],
                **QUICK,
            )

    def test_multi_target_one_liner_encodes_v3(self):
        """A multi-target 'query' is a workload: readers that predate
        workloads must be stopped by the version guard, not a parse error.
        Under the single version every older reader stops at the guard."""
        for query in ("SELECT count, sum", "SELECT count"):
            config = RunConfig(scheme="TAG", query=query, **QUICK)
            payload = config.to_jsonable()
            assert payload["version"] == CONFIG_SCHEMA_VERSION
            assert payload["query"] == query
            assert RunConfig.from_jsonable(payload) == config

    def test_queries_entry_names_default(self):
        config = RunConfig(
            scheme="TAG",
            queries=[
                {"aggregate": "count"},
                {"query": "SELECT sum"},
            ],
            **QUICK,
        )
        assert [spec.name for spec in config.queries] == ["count", "q2"]

    def test_wrongly_typed_queries_value(self):
        with pytest.raises(ConfigurationError, match="queries"):
            RunConfig.from_jsonable(
                {"scheme": "TAG", "queries": "SELECT count"}
            )


class TestWorkloadByteIdentity:
    """Each query of a shared pass matches its standalone run exactly."""

    @pytest.mark.parametrize("scheme", ["TAG", "SD"])
    def test_four_query_portfolio(self, scheme):
        report = Session().run(workload_config(scheme))
        assert report.is_workload()
        for spec in PORTFOLIO:
            standalone = run_config_result(standalone_config(scheme, spec))
            view = report.query(spec["name"])
            assert view.estimates == standalone.estimates, spec["name"]
            assert view.true_values == standalone.true_values, spec["name"]

    def test_td_piggyback_feedback_queries(self):
        """TD workloads drive adaptation from the shared contributing
        piggyback — exactly what every non-count standalone run does, so
        those queries stay byte-identical under the adaptive scheme too."""
        specs = [spec for spec in PORTFOLIO if spec["name"] != "count"]
        report = Session().run(workload_config("TD", queries=specs))
        for spec in specs:
            standalone = run_config_result(standalone_config("TD", spec))
            view = report.query(spec["name"])
            assert view.estimates == standalone.estimates, spec["name"]
            assert view.true_values == standalone.true_values, spec["name"]

    def test_combined_billing_beats_separate_runs(self):
        """One pass bills the piggybacks once: total words land strictly
        between the heaviest single run and the sum of all runs."""
        workload_words = Session().run(
            workload_config("SD")
        ).result.energy.total_words
        singles = [
            run_config_result(
                standalone_config("SD", spec)
            ).energy.total_words
            for spec in PORTFOLIO
        ]
        assert max(singles) < workload_words < sum(singles)

    def test_split_requires_workload_extras(self):
        plain = run_config_result(RunConfig(scheme="TAG", **QUICK))
        with pytest.raises(ConfigurationError, match="per-query"):
            split_workload_result(plain, ["a", "b"])


class TestSharedChannel:
    """Every query observes the same delivery sets (paired by design)."""

    @pytest.mark.parametrize("scheme", ["TAG", "SD"])
    def test_delivery_counts_match_standalones(self, scheme):
        report = Session().run(workload_config(scheme))
        shared = [
            (e.log.transmissions, e.log.deliveries, e.log.drops)
            for e in report.result.epochs
        ]
        for spec in PORTFOLIO:
            standalone = run_config_result(standalone_config(scheme, spec))
            assert shared == [
                (e.log.transmissions, e.log.deliveries, e.log.drops)
                for e in standalone.epochs
            ], spec["name"]

    def test_per_query_views_share_logs_and_energy(self):
        report = Session().run(workload_config("TAG"))
        views = list(report.query_results.values())
        for view in views[1:]:
            assert view.energy is views[0].energy
            for left, right in zip(view.epochs, views[0].epochs):
                assert left.log is right.log


class TestBlockedEquivalence:
    """One DeliveryPlan serves all queries: the blocked engine == the
    scalar reference wave, per query."""

    @pytest.mark.parametrize("scheme", ["TAG", "SD", "TD"])
    def test_blocked_vs_per_epoch(self, scheme):
        config = workload_config(scheme, epochs=12)
        blocked = RunReport(config, run_config_result(config))
        per_epoch = RunReport(
            config, run_config_result(config.replace(use_batch=False))
        )
        for name in blocked.query_names():
            assert (
                blocked.query(name).estimates
                == per_epoch.query(name).estimates
            ), name

    def test_batch_vs_scalar(self):
        config = workload_config("TD")
        batch = RunReport(config, run_config_result(config))
        scalar = RunReport(
            config,
            run_config_result(config.replace(use_batch=False)),
        )
        for name in batch.query_names():
            assert (
                batch.query(name).estimates == scalar.query(name).estimates
            ), name


    @pytest.mark.parametrize("adapt_interval", [1, 10])
    def test_td_batched_conversions_under_faults(
        self, monkeypatch, adapt_interval
    ):
        """Engine == oracle on the batched frontier with chaos attached.

        ``duplicate`` replays tree payloads into an M parent's inbox, so a
        level's ``convert_block`` must convert the replay too and the node
        must consume both, in inbox order; ``corrupt`` rewrites delivered
        count sketches. 1-epoch and 10-epoch blocks.
        """
        config = workload_config(
            "TD",
            epochs=20,
            adapt_interval=adapt_interval,
            faults=["duplicate:0.3:3", "corrupt:0.2:3"],
        )
        sender_columns = []
        convert_block = WorkloadAggregate.convert_block

        def spy(self, partials, senders, epochs):
            sender_columns.append(list(senders))
            return convert_block(self, partials, senders, epochs)

        monkeypatch.setattr(WorkloadAggregate, "convert_block", spy)
        batch_result = run_config_result(config)
        batch_calls = len(sender_columns)
        oracle_result = run_config_result(config.replace(use_batch=False))
        # The oracle never batches; the engine did, and saw a replay (one T
        # sender twice in one level's column).
        assert len(sender_columns) == batch_calls > 0
        assert any(
            len(set(column)) < len(column) for column in sender_columns
        )
        assert _digest(batch_result) == _digest(oracle_result)
        batch = RunReport(config, batch_result)
        oracle = RunReport(config, oracle_result)
        for name in batch.query_names():
            assert (
                batch.query(name).estimates == oracle.query(name).estimates
            ), name


    @pytest.mark.parametrize("scheme", ["SD", "TD"])
    def test_nary_fusion_under_faults(self, monkeypatch, scheme):
        """Engine == oracle with every inbox fused in one call.

        Under ``duplicate`` an inbox holds replays (the n-ary fusion sees
        the same synopsis twice, in inbox order), under ``corrupt`` its
        count sketches differ per receiver. Both tiers hand each node's
        whole inbox to ``synopsis_fuse_many``; neither scheme is left with
        a pairwise ``synopsis_fuse`` fold.
        """
        config = workload_config(
            scheme, epochs=12, faults=["duplicate:0.3:3", "corrupt:0.2:3"]
        )
        inbox_sizes = []
        fuse_many = WorkloadAggregate.synopsis_fuse_many

        def spy(self, synopses):
            inbox_sizes.append(len(synopses))
            return fuse_many(self, synopses)

        def pairwise(self, a, b):
            raise AssertionError("a scheme folded synopses pairwise")

        monkeypatch.setattr(WorkloadAggregate, "synopsis_fuse_many", spy)
        monkeypatch.setattr(WorkloadAggregate, "synopsis_fuse", pairwise)
        engine_result = run_config_result(config)
        assert max(inbox_sizes) >= 3
        oracle_result = run_config_result(config.replace(use_batch=False))
        assert _digest(engine_result) == _digest(oracle_result)
        engine = RunReport(config, engine_result)
        oracle = RunReport(config, oracle_result)
        for name in engine.query_names():
            assert (
                engine.query(name).estimates == oracle.query(name).estimates
            ), name

    def test_td_engine_never_hashes_one_cell_at_a_time(self, monkeypatch):
        """No wrapper drops the object wave back to per-cell sketch building.

        Every local synopsis and every frontier conversion of a TD workload
        block goes through the vectorized FM builders, so the only scalar
        ``insert_count`` calls left are the binomial regime the builders
        delegate (count > ``_EXACT_INSERT_LIMIT``). The oracle run shows the
        probe is live: it takes the exact-insert branches all the time.

        Not a wave op, and skipped here: the default ``mixed_eval`` (heavy
        hitters has no exact mix) converts the partials delivered straight
        to the base station once per epoch, on both tiers, under the
        pseudo-senders -1, -2, ...
        """
        counts = []
        insert_count = FMSketch.insert_count

        def spy(self, count, *key):
            if key[1] >= 0:  # (label, sender, epoch[, item])
                counts.append(count)
            return insert_count(self, count, *key)

        monkeypatch.setattr(FMSketch, "insert_count", spy)
        config = workload_config("TD", epochs=12)
        run_config_result(config)
        assert all(count > _EXACT_INSERT_LIMIT for count in counts), sorted(
            set(counts)
        )[:5]
        del counts[:]
        run_config_result(config.replace(use_batch=False))
        assert any(count <= _EXACT_INSERT_LIMIT for count in counts)


class TestStagedObjectWave:
    """The object wave runs a block in the fused kernel's order — every
    tributary, ONE frontier conversion, then the delta epoch by epoch — and
    still equals the scalar oracle byte for byte."""

    QUERIES = PORTFOLIO[:3] + (
        {"name": "heavy", "aggregate": "heavy_hitters:0.05"},
    )

    @staticmethod
    def _run(config, monkeypatch):
        """Records, per-node bills, engine paths, and per conversion method
        the index of the measured block each call ran in."""
        workload = QueryWorkload.from_config(config)
        scenario = build_scenario(config)
        aggregate, readings = workload.build(scenario.source)
        rings = scenario.topology.rings
        # Rings 0-1 start M, so even a loss-free run (whose adaptation only
        # shrinks the delta) has tributaries to convert in every block.
        scheme = TributaryDeltaScheme(
            scenario.topology.deployment,
            TDGraph(rings, scenario.tree, initial_modes_by_level(rings, 1)),
            aggregate,
            policy=TDFinePolicy(threshold=0.9),
            use_batch=config.use_batch,
        )
        blocks = []
        converts = {"convert": [], "convert_block": []}
        run_epochs = TributaryDeltaScheme.run_epochs

        def run_spy(self, epochs, channel, readings):
            pairs = run_epochs(self, epochs, channel, readings)
            blocks.append(self.engine_path)
            return pairs

        def conversion_spy(name):
            method = getattr(WorkloadAggregate, name)

            def spy(self, *args):
                converts[name].append(len(blocks))
                return method(self, *args)

            return spy

        with monkeypatch.context() as patch:
            patch.setattr(TributaryDeltaScheme, "run_epochs", run_spy)
            for name in converts:
                patch.setattr(WorkloadAggregate, name, conversion_spy(name))
            simulator = scenario.build_simulator(scheme)
            result = simulator.run(config.epochs, readings)
        records = repr(
            [
                (e.epoch, e.estimate, e.true_value, e.contributing,
                 e.contributing_estimate, e.log, sorted(e.extra.items()))
                for e in result.epochs
            ]
        )
        channel = simulator.channel
        bills = (channel.per_node_words(), channel.per_node_messages())
        return records, bills, blocks, converts

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    @pytest.mark.parametrize(
        "faults",
        [(), ("duplicate:0.3:3",), ("corrupt:0.2:3",),
         ("duplicate:0.3:3", "corrupt:0.2:3")],
    )
    def test_object_wave_equals_oracle(self, monkeypatch, loss, faults):
        config = workload_config(
            "TD",
            queries=self.QUERIES,
            failure=f"global:{loss}",
            epochs=12,
            adapt_interval=5,
            faults=list(faults),
        )
        records, bills, blocks, converts = self._run(config, monkeypatch)
        oracle = self._run(config.replace(use_batch=False), monkeypatch)
        assert records == oracle[0]
        assert bills == oracle[1]
        assert "'missing_stats'" in records
        # Blocks of 5, 5 and 2 epochs, all on the object wave. Every block
        # in which the oracle converted any tree payload converts them all
        # in ONE convert_block call; the oracle never batches.
        assert len(blocks) == 3
        assert all(path.startswith("object: ") for path in blocks)
        assert converts["convert"] == []
        assert oracle[3]["convert_block"] == []
        assert converts["convert_block"] == sorted(set(oracle[3]["convert"]))
        assert converts["convert_block"]


class TestMultiTargetQuery:
    """``SELECT a, b, ...`` one-liners expand into workloads."""

    def test_parse_queries_shares_clauses(self):
        queries = parse_queries(
            "SELECT count, sum, max WHERE value > 5 WINDOW 3 SUM"
        )
        assert [q.select for q in queries] == ["count", "sum", "max"]
        assert all(q.where is not None for q in queries)
        assert all(q.window == 3 and q.window_op == "SUM" for q in queries)

    def test_parse_query_rejects_multi_target(self):
        with pytest.raises(ConfigurationError, match="targets"):
            parse_query("SELECT count, sum")
        with pytest.raises(ConfigurationError, match="stray comma"):
            parse_queries("SELECT count,, sum")

    def test_one_liner_runs_as_workload(self):
        config = RunConfig(
            scheme="TAG", query="SELECT count, sum", **QUICK
        )
        report = Session().run(config)
        assert report.query_names() == ["count", "sum"]
        for name in ("count", "sum"):
            standalone = run_config_result(
                RunConfig(scheme="TAG", query=f"SELECT {name}", **QUICK)
            )
            assert report.query(name).estimates == standalone.estimates

    def test_duplicate_targets_get_distinct_handles(self):
        workload = QueryWorkload.from_config(
            RunConfig(scheme="TAG", query="SELECT count, count", **QUICK)
        )
        assert workload.names == ("count", "count#2")


class TestFrequentSummaries:
    """frequent/ summaries are first-class query targets."""

    def test_registry_lists_summaries(self):
        names = available()
        assert names["summaries"] == (
            "heavy_hitters", "quantiles", "quantiles_qd"
        )
        assert "heavy_hitters" in names["aggregates"]
        assert "quantiles" in names["aggregates"]
        assert "quantiles_qd" in names["aggregates"]

    def test_spec_strings_resolve(self):
        assert build_aggregate("heavy_hitters:0.2").phi == 0.2
        quantiles = build_aggregate("quantiles:0.1:0.9")
        assert quantiles.epsilon == 0.1 and quantiles.phi == 0.9
        with pytest.raises(ConfigurationError, match="bad aggregate spec"):
            build_aggregate("heavy_hitters:lots")
        with pytest.raises(ConfigurationError, match="available"):
            build_aggregate("frequent_items:0.1")

    def test_plain_aggregates_take_no_spec_args(self):
        """register_aggregate factories are zero-argument by contract:
        'count:zzz' must fail fast, not leak a string into the run."""
        for bad in ("count:zzz", "count:20", "sum:1"):
            with pytest.raises(ConfigurationError, match="no spec arguments"):
                build_aggregate(bad)
        with pytest.raises(ConfigurationError, match="no spec arguments"):
            RunConfig(scheme="TAG", aggregate="count:20", **QUICK)
        with pytest.raises(ConfigurationError, match="no spec arguments"):
            parse_query("SELECT count:20")

    def test_select_target(self):
        assert parse_query("SELECT heavy_hitters:0.2").select == (
            "heavy_hitters:0.2"
        )

    def test_heavy_hitters_exact_over_lossless_tree(self):
        config = RunConfig(
            scheme="TAG",
            failure="none",
            aggregate="heavy_hitters:0.1",
            reading="uniform:10:20:0",
            **QUICK,
        )
        result = run_config_result(config)
        assert result.estimates == result.true_values
        assert all(value >= 0.0 for value in result.estimates)

    def test_quantiles_exact_over_lossless_tree(self):
        config = RunConfig(
            scheme="TAG",
            failure="none",
            aggregate="quantiles:0.05:0.5",
            reading="uniform:10:100:0",
            **QUICK,
        )
        result = run_config_result(config)
        assert result.estimates == result.true_values

    def test_quantiles_runs_under_sd_and_td(self):
        for scheme in ("SD", "TD"):
            result = run_config_result(
                RunConfig(
                    scheme=scheme,
                    failure="global:0.2",
                    aggregate="quantiles:0.1",
                    reading="uniform:10:100:0",
                    **QUICK,
                )
            )
            truth = result.true_values[0]
            assert all(10 <= value <= 100 for value in result.estimates)
            assert 10 <= truth <= 100

    def test_filtered_heavy_hitters(self):
        result = run_config_result(
            RunConfig(
                scheme="TAG",
                failure="none",
                query="SELECT heavy_hitters:0.1 WHERE value > 50",
                reading="uniform:10:100:0",
                **QUICK,
            )
        )
        assert result.estimates == result.true_values


class TestWindowChurn:
    """Windowed streams under churn: no stale contributions."""

    def _update(self, died=(), joined=(), epoch=0):
        class Update:
            pass

        update = Update()
        update.died = tuple(died)
        update.joined = tuple(joined)
        update.epoch = epoch
        return update

    def test_death_drops_cached_window(self):
        """Windows cache nothing, so a death leaves no state behind."""
        source = lambda node, epoch: float(epoch)
        window = WindowedReadings(source, 5)
        for epoch in range(10, 14):
            window(7, epoch)
        window.on_membership_change(self._update(died=[7]))
        assert window.checkpoint_state() == {}

    def test_rejoin_restarts_window(self):
        source = lambda node, epoch: float(epoch)
        window = WindowedReadings(source, 5)
        for epoch in range(10, 14):
            window(7, epoch)
        window.on_membership_change(self._update(died=[7]))
        window.on_membership_change(self._update(joined=[7], epoch=20))
        # The window must span 20..21 only — never the dead epochs.
        assert window(7, 21) == pytest.approx((20.0 + 21.0) / 2)
        # Incremental advance stays inside the segment too.
        assert window(7, 22) == pytest.approx((20.0 + 21.0 + 22.0) / 3)
        # Once the window has refilled, behaviour is the steady state.
        assert window(7, 27) == pytest.approx(25.0)

    def test_deaths_churn_with_window_stays_consistent(self):
        """Regression: deaths churn + WINDOW 5 MEAN over a lossless tree
        must keep estimate == truth every epoch (a dead node's window
        state must not leak into either side)."""
        config = RunConfig(
            scheme="TAG",
            num_sensors=30,
            epochs=20,
            converge_epochs=0,
            failure="none",
            reading="uniform:10:100:3",
            query="SELECT sum WINDOW 5 MEAN",
            churn="deaths:1006:5:1",
            churn_interval=5,
            seed=2,
        )
        result = run_config_result(config)
        alive = [e.extra["alive_sensors"] for e in result.epochs]
        assert min(alive) == 25 and alive[0] == 30
        assert result.estimates == result.true_values

    def test_rejoin_churn_with_window_stays_consistent(self):
        config = RunConfig(
            scheme="TAG",
            num_sensors=30,
            epochs=30,
            converge_epochs=0,
            failure="none",
            reading="uniform:10:100:3",
            query="SELECT sum WINDOW 5 MEAN",
            churn="blackout:1005:0:0:10:10:1015",
            churn_interval=5,
            seed=2,
        )
        result = run_config_result(config)
        alive = [e.extra["alive_sensors"] for e in result.epochs]
        assert min(alive) < 30 and alive[-1] == 30
        assert result.estimates == result.true_values

    def test_workload_forwards_churn_to_every_window(self):
        """A workload's per-query windows restart too (the hook fans out)."""
        config = RunConfig(
            scheme="TAG",
            num_sensors=30,
            epochs=30,
            converge_epochs=0,
            failure="none",
            reading="uniform:10:100:3",
            queries=[
                {"name": "w5", "query": "SELECT sum WINDOW 5 MEAN"},
                {"name": "raw", "aggregate": "sum"},
            ],
            churn="blackout:1005:0:0:10:10:1015",
            churn_interval=5,
            seed=2,
        )
        report = RunReport(config, run_config_result(config))
        for name in ("w5", "raw"):
            view = report.query(name)
            assert view.estimates == view.true_values, name

    def test_workload_window_survives_kill_and_resume(self, tmp_path):
        """A checkpoint carries each slot's window segments: resumed epochs
        22 and 23, whose windows reach back into the blackout, equal the
        straight run's."""
        config = RunConfig(
            scheme="TD",
            num_sensors=80,
            epochs=24,
            start_epoch=0,
            converge_epochs=0,
            failure="global:0.1",
            reading="uniform:10:100:3",
            churn="blackout:10:0:0:10:10:20",
            churn_interval=10,
            queries=[
                {"name": "count", "aggregate": "count"},
                {"name": "w5", "query": "SELECT sum WINDOW 5 MEAN"},
            ],
        )
        straight = run_config_result(config)
        with pytest.raises(SimulationKilled):
            run_config_result(
                config, checkpoint=Checkpointer(tmp_path, interval=2, kill_at=22)
            )
        resumed = run_config_result(
            config, checkpoint=Checkpointer(tmp_path, interval=2, resume=True)
        )
        assert serialization.dumps(resumed) == serialization.dumps(straight)


class TestReportsAndSession:
    def test_render_lists_queries(self):
        report = Session().run(workload_config("TAG"))
        text = report.render()
        assert "workload[4 queries]" in text
        for spec in PORTFOLIO:
            assert f"query {spec['name']}:" in text

    def test_unknown_query_name_actionable(self):
        report = Session().run(workload_config("TAG"))
        with pytest.raises(ConfigurationError, match="heavy"):
            report.query("nope")

    def test_cache_round_trip_preserves_query_views(self, tmp_path):
        config = workload_config("TAG")
        first = Session(cache_dir=tmp_path).run(config)
        second = Session(cache_dir=tmp_path).run(config)
        for name in first.query_names():
            assert (
                first.query(name).estimates == second.query(name).estimates
            )
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_sweep_with_workload_configs(self):
        report = Session().sweep(
            [workload_config("TAG"), workload_config("SD")]
        )
        series = report.rms_by_query()
        assert ("TAG", "heavy") in series and ("SD", "sum") in series
        assert "rms_error" in report.render()

    def test_multiquery_experiment_describes_and_round_trips(self):
        config = describe_experiment("multiquery")
        assert config.queries is not None and len(config.queries) == 4
        assert RunConfig.from_json(config.to_json()) == config

    def test_serialization_codec_round_trip(self):
        from repro.serialization import dumps, loads

        config = workload_config("SD")
        assert loads(dumps(config)) == config
        report = Session().run(config)
        decoded = loads(dumps(report))
        for name in report.query_names():
            assert (
                decoded.query(name).estimates == report.query(name).estimates
            )

    def test_query_spec_objects_accepted(self):
        config = RunConfig(
            scheme="TAG",
            queries=[
                QuerySpec(name="a", aggregate="count"),
                QuerySpec(name="b", query="SELECT sum"),
            ],
            **QUICK,
        )
        assert config.queries[0].name == "a"
        report = Session().run(config)
        assert set(report.query_results) == {"a", "b"}
