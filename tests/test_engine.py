"""The run engine: registry, artifact cache, runner, and CSV export."""

import csv
import multiprocessing
import os
import pickle
import sys
import types

import pytest

from repro import obs
from repro.engine import (
    ArtifactCache,
    CACHE_DIR_ENV,
    RunRecord,
    Series,
    all_specs,
    experiment_names,
    get_spec,
    load_registry,
    register,
    run_experiments,
    runner,
    unregister,
)
from repro.experiments import SMALL_SCALE, World
from repro.experiments.export import export_all

#: Names the CLI historically exposed; the registry must cover them all.
EXPECTED_NAMES = {
    "table1", "fig6", "fig7", "fig8", "fig8-sensitivity", "fib-size",
    "fig9", "fig10", "fig11", "fig12", "envelope", "intradomain",
    "ablation-union", "ablation-tradeoff", "ablation-hybrid",
    "ablation-outage", "ablation-multihoming", "ablation-strategy-layer",
    "perturbation", "ablation-caching", "policy-sensitivity",
    "compact-routing", "fault-tolerance",
}

#: Standalone experiments cheap enough for runner tests.
CHEAP = ["compact-routing", "envelope", "ablation-hybrid", "table1"]


def _deterministic(counters):
    """Drop ``resources.*`` counters — CPU seconds and other
    measurements that legitimately differ between otherwise identical
    runs, like wall times in the ledger."""
    return {k: v for k, v in counters.items()
            if not k.startswith("resources.")}

#: Synthetic experiment modules registered from inside a test are only
#: visible to pool workers when they inherit this process's memory.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker processes must inherit test-registered experiments",
)


#: Spans a worker opens only when it builds its own substrate: every
#: route-table computation opens ``routing.batch.compute``, and the
#: prebuilt World already holds the tables to every AS.
SUBSTRATE_SPANS = {"world.topology", "world.oracle", "routing.batch.csr_build",
                   "routing.batch.compute", "topology.generate"}


def _span_names(spans):
    """Every span name in a metrics snapshot's span tree."""
    for span in spans:
        yield span["name"]
        yield from _span_names(span["children"])


def _register_synthetic(monkeypatch, name, run):
    """Register ``run`` as experiment ``name`` inside a synthetic module."""
    module = types.ModuleType(f"tests._synthetic_{name.replace('-', '_')}")
    run.__module__ = module.__name__
    module.run = run
    module.format_result = lambda result: ""
    monkeypatch.setitem(sys.modules, module.__name__, module)
    register(name, description="test-only", section="§0",
             needs_world=False)(run)


class TestRegistry:
    def test_every_legacy_experiment_is_registered(self):
        assert set(experiment_names()) == EXPECTED_NAMES

    def test_specs_are_complete(self):
        for spec in all_specs():
            assert spec.description
            assert spec.section.startswith(("§", "Table", "Fig"))
            assert spec.module.startswith("repro.experiments.exp_")

    def test_execute_format_round_trip(self):
        spec = get_spec("compact-routing")
        result = spec.execute()
        text = spec.format(result)
        assert "compact routing" in text
        series = spec.series(result)
        assert [s.name for s in series] == ["compact_routing"]
        assert all(len(row) == len(series[0].headers)
                   for row in series[0].rows)

    def test_needs_world_guard(self):
        with pytest.raises(ValueError, match="needs a World"):
            get_spec("fig8").execute(None)

    def test_cross_module_name_collision_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            @register("table1", description="imposter", section="§0",
                      needs_world=False)
            def run():  # pragma: no cover - never runs
                return None

    def test_tag_filter(self):
        ablations = all_specs(tag="ablation")
        assert {"ablation-hybrid", "compact-routing"} <= {
            s.name for s in ablations
        }
        assert "fig8" not in {s.name for s in ablations}

    def test_specs_are_picklable(self):
        for spec in all_specs():
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_paper_targets_resolve_and_validate(self):
        # Every declared target must have a sane band and an observed
        # value produced by the module's target_values().
        declared = {s.name: s.targets() for s in all_specs()
                    if s.targets()}
        assert {"table1", "envelope", "compact-routing", "fig6",
                "fig8", "fig11", "fib-size"} <= set(declared)
        for name, targets in declared.items():
            keys = {t.key for t in targets}
            assert len(keys) == len(targets)  # no duplicate keys
            for target in targets:
                assert target.lo <= target.hi
                assert target.section

    def test_world_free_targets_pass_their_bands(self):
        for name in ["table1", "envelope", "compact-routing"]:
            spec = get_spec(name)
            observed = spec.observed(spec.execute())
            for target in spec.targets():
                value = observed[target.key]
                assert target.lo <= value <= target.hi, (
                    f"{name}.{target.key}={value} outside "
                    f"[{target.lo}, {target.hi}]"
                )

    def test_spec_without_targets_observes_nothing(self):
        spec = get_spec("perturbation")
        assert spec.targets() == []


class TestArtifactCache:
    def test_key_depends_on_params(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        base = cache.key("topology", seed=1)
        assert base.startswith("topology-")
        assert base == cache.key("topology", seed=1)
        assert base != cache.key("topology", seed=2)
        assert base != cache.key("workload", seed=1)

    def test_store_load_round_trip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache.key("thing", n=3)
        assert cache.load(key) is None
        cache.store(key, {"rows": [1, 2, 3]})
        assert cache.load(key) == {"rows": [1, 2, 3]}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache.key("thing")
        cache.store(key, [1])
        path, = tmp_path.glob("thing-*.pkl")
        path.write_bytes(b"not a pickle")
        collector = obs.Metrics()
        with obs.using(collector):
            assert cache.load(key) is None
        # The garbage entry is counted and unlinked, so the next store
        # starts clean instead of crashing every future run.
        assert collector.counters["cache.corrupt"] == 1
        assert not path.exists()

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache.key("thing")
        cache.store(key, list(range(1000)))
        path, = tmp_path.glob("thing-*.pkl")
        path.write_bytes(path.read_bytes()[:40])
        assert cache.load(key) is None
        assert not path.exists()

    def test_stale_class_pickle_is_a_miss(self, tmp_path):
        # A cache entry whose pickle references a class that has since
        # been moved/renamed raises ModuleNotFoundError on load — the
        # docstring's "counts as a miss" promise must hold for it too.
        ghost = types.ModuleType("tests._ghost_artifact")

        class Artifact:
            pass

        Artifact.__module__ = ghost.__name__
        Artifact.__qualname__ = "Artifact"
        ghost.Artifact = Artifact
        sys.modules[ghost.__name__] = ghost
        cache = ArtifactCache(str(tmp_path))
        key = cache.key("thing")
        try:
            cache.store(key, Artifact())
        finally:
            del sys.modules[ghost.__name__]  # "delete" the class
        collector = obs.Metrics()
        with obs.using(collector):
            assert cache.load(key) is None
        assert collector.counters["cache.corrupt"] == 1
        rebuilt = []
        assert cache.get_or_build("thing", lambda: rebuilt.append(1) or 7) == 7
        assert rebuilt == [1]

    def test_none_valued_artifact_is_a_hit(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        built = []

        def builder():
            built.append(1)
            return None

        assert cache.get_or_build("maybe", builder, n=1) is None
        assert cache.get_or_build("maybe", builder, n=1) is None
        assert built == [1]  # stored once, hit forever after
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_and_miss_counters_reach_obs(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        collector = obs.Metrics()
        with obs.using(collector):
            cache.get_or_build("x", lambda: 1, n=1)
            cache.get_or_build("x", lambda: 1, n=1)
        assert collector.counters["cache.miss"] == 1
        assert collector.counters["cache.hit"] == 1

    def test_get_or_build_counts_hits_and_misses(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        built = []

        def builder():
            built.append(1)
            return 42

        assert cache.get_or_build("x", builder, n=1) == 42
        assert cache.get_or_build("x", builder, n=1) == 42
        assert built == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_from_env_disabled(self, tmp_path, monkeypatch):
        for value in ("off", "none", "0", ""):
            monkeypatch.setenv(CACHE_DIR_ENV, value)
            assert ArtifactCache.from_env() is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "c"))
        cache = ArtifactCache.from_env()
        assert cache is not None
        assert cache.root == str(tmp_path / "c")

    def test_suite_cache_is_not_the_users(self):
        # tests/conftest.py gives the session a cache of its own.
        cache = ArtifactCache.from_env()
        assert cache is not None
        user_cache = os.path.realpath(os.path.expanduser("~/.cache"))
        root = os.path.realpath(cache.root)
        assert os.path.commonpath([root, user_cache]) != user_cache


class TestWorldCache:
    def test_cold_then_warm_world_artifacts_match(self, tmp_path):
        def same_events(world, other):
            mine = world.device_event_columns
            theirs = other.device_event_columns
            return (mine.table.tobytes() == theirs.table.tobytes()
                    and mine.users == theirs.users)

        def same_workload(world, other):
            mine, theirs = world.workload, other.workload
            return (mine.segments.tobytes() == theirs.segments.tobytes()
                    and mine.user_ids == theirs.user_ids)

        cold = World(SMALL_SCALE, cache=ArtifactCache(str(tmp_path)))
        plain = World(SMALL_SCALE)
        assert same_workload(cold, plain)
        assert same_events(cold, plain)
        assert cold.cache.misses > 0 and cold.cache.hits == 0

        warm = World(SMALL_SCALE, cache=ArtifactCache(str(tmp_path)))
        assert same_workload(warm, plain)
        assert same_events(warm, plain)
        assert warm.cache.hits > 0 and warm.cache.misses == 0

    def test_warm_oracle_survives_runs(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        world = World(SMALL_SCALE, cache=cache)
        world.oracle.routes_to(next(iter(world.topology.ases)))
        world.save_warm_artifacts()
        rehydrated = World(SMALL_SCALE, cache=ArtifactCache(str(tmp_path)))
        assert rehydrated.oracle._cache  # pre-warmed, not empty

    def test_warm_oracle_store_skipped_when_clean(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        world = World(SMALL_SCALE, cache=cache)
        world.oracle.routes_to(next(iter(world.topology.ases)))
        stores = []
        original_store = cache.store
        cache.store = lambda key, obj: stores.append(key) or original_store(
            key, obj
        )
        collector = obs.Metrics()
        with obs.using(collector):
            world.save_warm_artifacts()  # one dirty route -> stored
            world.save_warm_artifacts()  # nothing new -> skipped
        assert len(stores) == 1
        assert collector.counters["oracle.warm_stored"] == 1
        assert collector.counters["oracle.warm_store_skipped"] == 1

        # A rehydrated oracle is born clean: re-persisting routes it
        # was loaded with would be pure overhead after every experiment.
        rehydrated = World(SMALL_SCALE, cache=ArtifactCache(str(tmp_path)))
        assert rehydrated.oracle.dirty_routes == 0
        restores = []
        rehydrated.cache.store = lambda key, obj: restores.append(key)
        rehydrated.save_warm_artifacts()
        assert restores == []

    def test_warm_oracle_key_includes_topology_params(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        world = World(SMALL_SCALE, cache=cache)
        world.oracle.routes_to(next(iter(world.topology.ases)))
        world.save_warm_artifacts()
        # The stored key is parameterised by the topology generator
        # config, so routes computed over one graph can never be
        # rehydrated against a differently-configured topology.
        assert cache.load(cache.key("oracle-warm")) is None
        keyed = cache.key("oracle-warm", **World._topology_params())
        assert cache.load(keyed) is not None


class TestRunner:
    def test_run_record_to_dict(self):
        record = RunRecord("x", "ok", 1.23456, output="text")
        assert record.ok
        assert record.wall_s == record.wall_time_s
        assert record.to_dict() == {
            "name": "x", "status": "ok", "wall_time_s": 1.235,
            "started_at": 0.0, "output": "text", "error": "",
            "metrics": {}, "series_digests": {}, "observed": {},
            "attempts": 1, "resumed": False,
        }
        # to_dict rounds wall times; the round trip is exact modulo that.
        rebuilt = RunRecord.from_dict(record.to_dict())
        assert rebuilt.to_dict() == record.to_dict()

    def test_unknown_name_fails_fast(self):
        with pytest.raises(KeyError):
            run_experiments(["no-such-exp"], SMALL_SCALE)

    def test_parallel_matches_serial(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        serial = run_experiments(CHEAP, SMALL_SCALE, jobs=1, cache=cache)
        parallel = run_experiments(CHEAP, SMALL_SCALE, jobs=2, cache=cache)
        assert [r.name for r in serial] == CHEAP
        assert all(r.ok for r in serial), [r.error for r in serial]
        # Identical payloads modulo wall time and metrics (timings, and
        # substrate counters that depend on how experiments share
        # worker-pooled Worlds): determinism holds across process
        # boundaries and job counts.
        strip = lambda r: {**r.to_dict(), "wall_time_s": None,
                           "started_at": None, "metrics": None}
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]
        # Series digests are part of the determinism contract: the
        # ledger must fingerprint a parallel run identically.
        for s, p in zip(serial, parallel):
            assert s.series_digests == p.series_digests
            assert s.observed == p.observed

    def test_failure_is_isolated(self, monkeypatch):
        # Specs resolve run/format_result from their module lazily, so
        # the failing experiment must live in a (synthetic) module.
        module = types.ModuleType("tests._exploding")

        def run():
            raise RuntimeError("boom")

        run.__module__ = module.__name__
        module.run = run
        module.format_result = lambda result: ""
        monkeypatch.setitem(sys.modules, module.__name__, module)
        register("exploding", description="test-only", section="§0",
                 needs_world=False)(run)

        try:
            records = run_experiments(
                ["compact-routing", "exploding", "envelope"], SMALL_SCALE
            )
        finally:
            unregister("exploding")
        statuses = {r.name: r.status for r in records}
        assert statuses == {
            "compact-routing": "ok", "exploding": "error", "envelope": "ok",
        }
        failed = next(r for r in records if r.name == "exploding")
        assert "RuntimeError: boom" in failed.error
        assert not failed.ok

    @fork_only
    def test_dead_worker_is_isolated(self, monkeypatch):
        # A worker killed mid-task (OOM, segfault) breaks the whole
        # pool; the engine must keep its per-experiment isolation
        # contract: the killer comes back STATUS_ERROR and the innocent
        # experiments caught in the pool collapse are retried and pass.
        def run():
            os._exit(17)

        _register_synthetic(monkeypatch, "worker-killer", run)
        try:
            records = run_experiments(
                ["compact-routing", "worker-killer", "envelope"],
                SMALL_SCALE, jobs=2,
            )
        finally:
            unregister("worker-killer")
        statuses = {r.name: r.status for r in records}
        assert statuses == {
            "compact-routing": "ok",
            "worker-killer": "error",
            "envelope": "ok",
        }
        killed = next(r for r in records if r.name == "worker-killer")
        assert "worker process died" in killed.error


class TestRunnerMetrics:
    def test_record_carries_experiment_span(self):
        record, = run_experiments(["compact-routing"], SMALL_SCALE)
        timers = record.metrics["timers"]
        assert timers["experiment.compact-routing"]["count"] == 1
        assert record.metrics["spans"]  # full trace tree, not just sums

    def test_failed_experiment_still_reports_metrics(self, monkeypatch):
        def run():
            obs.incr("test.before_boom")
            raise RuntimeError("boom")

        _register_synthetic(monkeypatch, "metric-boom", run)
        try:
            record, = run_experiments(["metric-boom"], SMALL_SCALE)
        finally:
            unregister("metric-boom")
        assert not record.ok
        assert record.metrics["counters"]["test.before_boom"] == 1

    def test_run_merges_record_metrics_into_parent_registry(self):
        parent = obs.reset_metrics()
        records = run_experiments(["compact-routing"], SMALL_SCALE)
        assert parent.timers["experiment.compact-routing"]["count"] == 1
        assert records[0].metrics["counters"] == parent.counters

    @fork_only
    def test_serial_and_parallel_counter_totals_agree(self, monkeypatch):
        # The acceptance property of the worker merge path: summing the
        # per-record snapshots of a parallel run reproduces the serial
        # totals exactly, for every counter.
        def make_run(weight):
            def run():
                obs.incr("test.runs")
                obs.incr("test.weight", weight)
                with obs.span("test.work"):
                    pass
            return run

        _register_synthetic(monkeypatch, "counting-a", make_run(3))
        _register_synthetic(monkeypatch, "counting-b", make_run(4))
        names = ["counting-a", "counting-b"]
        try:
            serial = run_experiments(names, SMALL_SCALE, jobs=1)
            parallel = run_experiments(names, SMALL_SCALE, jobs=2)
        finally:
            unregister("counting-a")
            unregister("counting-b")
        totals_serial = obs.merge_snapshots(r.metrics for r in serial)
        totals_parallel = obs.merge_snapshots(r.metrics for r in parallel)
        # resources.* counters are measurements (CPU seconds) and
        # legitimately differ run-to-run.
        assert (_deterministic(totals_serial["counters"])
                == _deterministic(totals_parallel["counters"])
                == {"test.runs": 2, "test.weight": 7})
        assert totals_serial["timers"]["test.work"]["count"] == 2
        assert totals_parallel["timers"]["test.work"]["count"] == 2

    @fork_only
    def test_no_repro_thread_in_workers_or_driver(self, monkeypatch,
                                                  tmp_path, capsys):
        # Resource readings are taken at span and experiment exits, not
        # by a timer thread: neither a pooled worker nor the driver of
        # a serial `repro run` runs a thread that repro started.
        import json
        import threading

        from repro.cli import main

        def make_probe():
            def run():
                obs.gauge("test.pid", os.getpid())
                for thread in threading.enumerate():
                    if thread.name.startswith("repro"):
                        obs.incr(f"test.thread.{thread.name}")
            return run

        names = ["thread-probe-a", "thread-probe-b"]
        for name in names:
            _register_synthetic(monkeypatch, name, make_probe())
        monkeypatch.delenv(obs.LEDGER_DIR_ENV, raising=False)
        metrics_out = tmp_path / "metrics.json"
        try:
            pooled = run_experiments(names, SMALL_SCALE, jobs=2)
            assert main(["run", names[0], "--scale", "small",
                         "--metrics-out", str(metrics_out)]) == 0
        finally:
            for name in names:
                unregister(name)
        capsys.readouterr()
        serial = json.loads(metrics_out.read_text())["experiments"]
        assert all(record.ok for record in pooled)
        assert all(record.metrics["gauges"]["test.pid"] != os.getpid()
                   for record in pooled)  # really ran in workers
        assert serial[names[0]]["status"] == "ok"
        for metrics in ([record.metrics for record in pooled]
                        + [serial[names[0]]["metrics"]]):
            assert not [key for key in metrics["counters"]
                        if key.startswith("test.thread.")]


class TestInheritedWorld:
    @fork_only
    def test_pooled_workers_inherit_the_device_substrate(self, monkeypatch):
        # The parent builds the World before the pool forks, so no
        # worker builds a topology, an oracle, a CSR or a route table
        # of its own.
        monkeypatch.setattr(runner, "_WORLDS", {})
        names = ["fig8", "fig10", "ablation-outage"]
        pooled = run_experiments(names, SMALL_SCALE, jobs=2)
        serial = run_experiments(names, SMALL_SCALE, jobs=1)
        for record in pooled:
            assert record.ok, record.error
            opened = SUBSTRATE_SPANS & set(
                _span_names(record.metrics["spans"])
            )
            assert not opened, (record.name, opened)
        assert ([record.series_digests for record in pooled]
                == [record.series_digests for record in serial])

    def test_pooled_run_stores_the_route_tables(self, tmp_path):
        # The prebuilt World persists the routes it computed, once, so
        # the next run copies them from the artifact instead of
        # recomputing every destination. The run then lets go of that
        # World.
        driver = obs.Metrics()
        with obs.using(driver):
            records = run_experiments(
                ["fig8", "fig10"], SMALL_SCALE, jobs=2,
                cache=ArtifactCache(str(tmp_path)),
            )
        assert all(record.ok for record in records)
        assert driver.counters["oracle.tables_stored"] == 1
        assert (SMALL_SCALE, str(tmp_path)) not in runner._WORLDS
        assert len(list(tmp_path.glob("oracle-tables-*"))) == 1
        collector = obs.Metrics()
        with obs.using(collector):
            world = World(SMALL_SCALE, cache=ArtifactCache(str(tmp_path)))
            world.oracle.routes_to_many(sorted(world.topology.ases))
        assert collector.counters.get("oracle.tables_mmap") == 1
        assert "routing.batch.dests" not in collector.counters
        assert "routing.batch.compute" not in set(
            _span_names(collector.snapshot()["spans"])
        )

    @fork_only
    def test_failed_prebuild_keeps_isolation(self, monkeypatch):
        # A substrate that cannot be built fails the experiments that
        # need it, in their workers, and nothing else.
        def boom(self):
            raise RuntimeError("topology boom")

        monkeypatch.setattr(runner, "_WORLDS", {})
        monkeypatch.setattr(World, "topology", property(boom))
        driver = obs.Metrics()
        with obs.using(driver):
            records = run_experiments(
                ["fig8", "envelope", "fig10"], SMALL_SCALE, jobs=2
            )
        assert {record.name: record.status for record in records} == {
            "fig8": "error", "envelope": "ok", "fig10": "error",
        }
        for record in records:
            if not record.ok:
                assert record.error.rstrip().endswith(
                    "RuntimeError: topology boom"
                ), record.error
        assert driver.counters["runner.prebuild_failed"] == 1


class TestLedgerParity:
    #: World-free experiments: no substrate counters that depend on
    #: how experiments share worker-pooled Worlds, so serial and
    #: parallel runs must agree on *every* counter.
    WORLD_FREE = ["table1", "envelope", "compact-routing"]

    def test_records_are_stamped_for_the_ledger(self):
        record, = run_experiments(["table1"], SMALL_SCALE)
        assert record.started_at > 0
        assert record.series_digests  # table1 exports one series
        assert all(len(d) == 16 for d in record.series_digests.values())
        assert record.observed["chain.ind_stretch.exact"] > 0

    @fork_only
    def test_serial_and_parallel_ledger_entries_agree(self):
        serial = run_experiments(self.WORLD_FREE, SMALL_SCALE, jobs=1)
        parallel = run_experiments(self.WORLD_FREE, SMALL_SCALE, jobs=2)
        entry_s = obs.build_entry(
            serial, scale_label="small", seed=2014, jobs=1,
            elapsed_s=1.0,
        )
        entry_p = obs.build_entry(
            parallel, scale_label="small", seed=2014, jobs=2,
            elapsed_s=1.0,
        )
        for name in self.WORLD_FREE:
            exp_s = entry_s["experiments"][name]
            exp_p = entry_p["experiments"][name]
            assert exp_s["series_digests"] == exp_p["series_digests"]
            assert exp_s["observed"] == exp_p["observed"]
            assert exp_s["status"] == exp_p["status"] == "ok"
        assert (_deterministic(entry_s["totals"]["counters"])
                == _deterministic(entry_p["totals"]["counters"]))

    def test_failed_experiment_ledgers_with_empty_digests(
        self, monkeypatch
    ):
        def run():
            raise RuntimeError("boom")

        _register_synthetic(monkeypatch, "ledger-boom", run)
        try:
            record, = run_experiments(["ledger-boom"], SMALL_SCALE)
        finally:
            unregister("ledger-boom")
        entry = obs.build_entry(
            [record], scale_label="small", seed=None, jobs=1,
            elapsed_s=0.1,
        )
        exp = entry["experiments"]["ledger-boom"]
        assert exp["status"] == "error"
        assert exp["series_digests"] == {}
        assert exp["observed"] == {}


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        world = World(SMALL_SCALE)
        written = export_all(
            world, str(tmp_path), names=["compact-routing", "envelope"]
        )
        assert sorted(os.path.basename(p) for p in written) == [
            "compact_routing.csv", "envelope.csv", "envelope_extra_fib.csv",
        ]
        for path, spec_name in [
            (tmp_path / "compact_routing.csv", "compact-routing"),
        ]:
            spec = get_spec(spec_name)
            series = spec.series(spec.execute())[0]
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert tuple(rows[0]) == series.headers
            assert len(rows) - 1 == len(series.rows)
            assert [str(v) for v in series.rows[0]] == rows[1]

    def test_export_filter_unknown_name_writes_nothing(self, tmp_path):
        written = export_all(World(SMALL_SCALE), str(tmp_path), names=[])
        assert written == []


def test_series_is_frozen():
    series = Series("s", ("a",), [[1]])
    with pytest.raises(Exception):
        series.name = "other"


def test_load_registry_idempotent():
    load_registry()
    before = experiment_names()
    load_registry()
    assert experiment_names() == before
