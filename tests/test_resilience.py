"""The resilience layer: chaos harness, journal, cache integrity,
deadlines, crash recovery, and resume determinism."""

import multiprocessing
import os
import sys
import time
import types
import warnings

import numpy as np
import pytest

from repro import obs
from repro.cli import _run
from repro.engine import (
    ArtifactCache,
    CACHE_MAX_MB_ENV,
    CHAOS_ENV,
    ChaosConfig,
    RunJournal,
    RunRecord,
    STATUS_TIMEOUT,
    get_spec,
    register,
    run_config_hash,
    run_experiments,
    stitch_records,
    unregister,
)
from repro.experiments import SMALL_SCALE
from repro.faults.retry import RetryPolicy

#: Cheap standalone experiments for end-to-end resilience tests.
CHEAP = ["compact-routing", "envelope", "table1"]

#: Synthetic experiment modules registered from inside a test are only
#: visible to pool workers when they inherit this process's memory.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker processes must inherit test-registered experiments",
)

#: A fast retry ladder so watchdog tests finish in seconds.
FAST_POLICY = RetryPolicy(
    initial_timeout=0.05, backoff_factor=2.0, max_timeout=0.2,
    max_attempts=2, jitter_fraction=0.1,
)


def _register_synthetic(monkeypatch, name, run, **module_attrs):
    """Register ``run`` as experiment ``name`` inside a synthetic module."""
    module = types.ModuleType(f"tests._resil_{name.replace('-', '_')}")
    run.__module__ = module.__name__
    module.run = run
    module.format_result = lambda result: ""
    for attr, value in module_attrs.items():
        setattr(module, attr, value)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    register(name, description="test-only", section="§0",
             needs_world=False)(run)


class TestChaosConfig:
    def test_parse_full_spec(self):
        config = ChaosConfig.parse("kill:0.1,hang:0.05,corrupt:0.2,seed:7")
        assert config == ChaosConfig(kill=0.1, hang=0.05, corrupt=0.2,
                                     seed=7)
        assert config.active

    def test_parse_partial_spec_defaults(self):
        config = ChaosConfig.parse("kill:0.5")
        assert (config.hang, config.corrupt, config.seed) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("spec,fragment", [
        ("explode:0.5", "bad chaos token"),
        ("kill", "bad chaos token"),
        ("kill:lots", "bad chaos value"),
        ("kill:1.5", "outside [0, 1]"),
        ("kill:-0.1", "outside [0, 1]"),
        ("kill:0.1,kill:0.2", "duplicate chaos key"),
    ])
    def test_parse_rejects_bad_specs(self, spec, fragment):
        with pytest.raises(ValueError) as excinfo:
            ChaosConfig.parse(spec)
        assert fragment in str(excinfo.value)

    def test_from_env_disabled(self, monkeypatch):
        for value in ("", "off", "none", "0"):
            monkeypatch.setenv(CHAOS_ENV, value)
            assert ChaosConfig.from_env() is None
        monkeypatch.delenv(CHAOS_ENV)
        assert ChaosConfig.from_env() is None
        monkeypatch.setenv(CHAOS_ENV, "kill:0.25,seed:3")
        assert ChaosConfig.from_env() == ChaosConfig(kill=0.25, seed=3)

    def test_decisions_are_deterministic(self):
        a = ChaosConfig(kill=0.5, seed=42)
        b = ChaosConfig(kill=0.5, seed=42)
        draws_a = [a.should_kill("fig8", k) for k in range(64)]
        draws_b = [b.should_kill("fig8", k) for k in range(64)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_attempts_are_independent_draws(self):
        # The property the CI chaos job rests on: a strike on attempt k
        # does not imply a strike on attempt k+1, so P < 1 retried
        # experiments eventually get through.
        config = ChaosConfig(kill=0.5, seed=0)
        survivors = [
            name for name in (f"exp-{i}" for i in range(50))
            if not all(config.should_kill(name, k) for k in range(4))
        ]
        assert len(survivors) >= 45  # P(4 straight kills) ~ 6%

    def test_probability_extremes(self):
        always = ChaosConfig(kill=1.0)
        never = ChaosConfig(kill=0.0)
        assert all(always.should_kill(f"e{i}", 0) for i in range(10))
        assert not any(never.should_kill(f"e{i}", 0) for i in range(10))

    def test_draw_frequency_tracks_probability(self):
        config = ChaosConfig(hang=0.3, seed=9)
        hits = sum(config.should_hang(f"e{i}", 0) for i in range(500))
        assert 100 <= hits <= 200  # 0.3 +/- generous slack


class TestRunConfigHash:
    def test_name_order_does_not_matter(self):
        assert run_config_hash("small", 1, ["b", "a"]) == \
            run_config_hash("small", 1, ["a", "b"])

    def test_every_input_matters(self):
        base = run_config_hash("small", 1, ["a"])
        assert base != run_config_hash("paper", 1, ["a"])
        assert base != run_config_hash("small", 2, ["a"])
        assert base != run_config_hash("small", 1, ["a", "b"])


class TestStitchRecords:
    def _record(self, name):
        return RunRecord(name, "ok", 0.1)

    def test_merges_in_request_order(self):
        stitched = stitch_records(
            ["a", "b", "c"],
            {"b": self._record("b")},
            [self._record("c"), self._record("a")],
        )
        assert [r.name for r in stitched] == ["a", "b", "c"]

    def test_missing_record_raises(self):
        with pytest.raises(ValueError, match="no record"):
            stitch_records(["a", "b"], {}, [self._record("a")])

    def test_double_coverage_raises(self):
        with pytest.raises(ValueError, match="both resumed and re-run"):
            stitch_records(
                ["a"], {"a": self._record("a")}, [self._record("a")]
            )


class TestRunJournal:
    def _journal(self, root, run_id="20260101T000000Z-aaaa"):
        return RunJournal.create(
            str(root), run_id, scale_label="small", seed=7,
            names=["a", "b"],
        )

    def test_create_and_find(self, tmp_path):
        journal = self._journal(tmp_path)
        found = RunJournal.find(str(tmp_path), journal.run_id)
        assert found.run_id == journal.run_id
        assert found.config_hash == run_config_hash("small", 7, ["a", "b"])
        assert RunJournal.find(str(tmp_path), "last").run_id == \
            journal.run_id

    def test_find_unknown_lists_known_ids(self, tmp_path):
        self._journal(tmp_path)
        with pytest.raises(KeyError, match="20260101T000000Z-aaaa"):
            RunJournal.find(str(tmp_path), "nope")
        with pytest.raises(KeyError, match="no journals"):
            RunJournal.find(str(tmp_path / "empty"), "last")

    def test_completed_counts_only_ok_records(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(RunRecord("a", "ok", 0.1, output="A"))
        journal.record(RunRecord("b", "error", 0.1, error="boom"))
        assert set(journal.completed()) == {"a"}
        # A later failure for a completed name re-opens it...
        journal.record(RunRecord("a", "timeout", 0.1))
        assert journal.completed() == {}
        # ...and a later success closes it again (last entry wins).
        journal.record(RunRecord("b", "ok", 0.2, output="B"))
        assert set(journal.completed()) == {"b"}

    def test_truncated_final_line_is_skipped(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(RunRecord("a", "ok", 0.1, output="A"))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "record", "record": {"name": "b", ')
        reopened = RunJournal.find(str(tmp_path), journal.run_id)
        assert set(reopened.completed()) == {"a"}

    def test_journal_round_trip_is_byte_identical(self, tmp_path):
        journal = self._journal(tmp_path)
        record = RunRecord(
            "a", "ok", 1.5, output="text", started_at=12.0,
            series_digests={"s": "deadbeefdeadbeef"},
            observed={"k": 1.25}, attempts=2,
        )
        journal.record(record)
        payload = journal.completed()["a"]
        restored = RunRecord.from_dict(payload, resumed=True)
        assert restored.resumed
        assert restored.series_digests == record.series_digests
        assert restored.output == record.output
        assert restored.attempts == 2

    def test_known_run_ids_sorted(self, tmp_path):
        self._journal(tmp_path, "20260102T000000Z-bbbb")
        self._journal(tmp_path, "20260101T000000Z-aaaa")
        assert RunJournal.known_run_ids(str(tmp_path)) == [
            "20260101T000000Z-aaaa", "20260102T000000Z-bbbb",
        ]


class TestCacheIntegrity:
    def test_bit_flip_is_a_counted_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache.key("thing", n=1)
        cache.store(key, list(range(100)))
        path, = tmp_path.glob("thing-*.pkl")
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip one payload byte; header stays valid
        path.write_bytes(bytes(blob))
        collector = obs.Metrics()
        with obs.using(collector):
            assert cache.load(key) is None
        assert collector.counters["cache.corrupt"] == 1
        assert not path.exists()  # unlinked: next store starts clean

    def test_legacy_raw_pickle_is_a_miss(self, tmp_path):
        # Entries written before the checksummed container must never
        # be decoded as valid: they carry no integrity information.
        import pickle

        cache = ArtifactCache(str(tmp_path))
        key = cache.key("thing")
        with open(tmp_path / f"{key}.pkl", "wb") as handle:
            pickle.dump([1, 2, 3], handle)
        assert cache.load(key) is None

    def test_header_size_mismatch_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache.key("thing")
        cache.store(key, list(range(1000)))
        path, = tmp_path.glob("thing-*.pkl")
        path.write_bytes(path.read_bytes()[:-20])  # torn write
        assert cache.load(key) is None

    def test_lru_sweep_evicts_oldest_first(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        for name in ("aa", "bb", "cc"):
            cache.store(cache.key(name), name * 100)
        paths = {p.name.split("-")[0]: p for p in tmp_path.glob("*.pkl")}
        os.utime(paths["aa"], (100, 100))
        os.utime(paths["bb"], (200, 200))
        os.utime(paths["cc"], (300, 300))
        # Budget fits roughly two entries: storing a fourth must evict
        # the oldest ("aa") and never the entry just written.
        entry_size = paths["aa"].stat().st_size
        cache.max_bytes = int(entry_size * 2.5)
        collector = obs.Metrics()
        with obs.using(collector):
            cache.store(cache.key("dd"), "dd" * 100)
        assert collector.counters["cache.evicted"] >= 1
        survivors = {p.name.split("-")[0] for p in tmp_path.glob("*.pkl")}
        assert "dd" in survivors
        assert "aa" not in survivors

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        cache.store(cache.key("aa"), "aa" * 100)
        cache.store(cache.key("bb"), "bb" * 100)
        paths = {p.name.split("-")[0]: p for p in tmp_path.glob("*.pkl")}
        os.utime(paths["aa"], (100, 100))
        os.utime(paths["bb"], (200, 200))
        assert cache.load(cache.key("aa")) is not None  # aa now newest
        entry_size = paths["aa"].stat().st_size
        cache.max_bytes = int(entry_size * 2.5)
        cache.store(cache.key("cc"), "cc" * 100)
        survivors = {p.name.split("-")[0] for p in tmp_path.glob("*.pkl")}
        assert survivors == {"aa", "cc"}  # bb was LRU despite older store

    def test_max_bytes_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "2")
        assert ArtifactCache(str(tmp_path)).max_bytes == 2 * 1024 * 1024
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "0")
        assert ArtifactCache(str(tmp_path)).max_bytes is None
        monkeypatch.delenv(CACHE_MAX_MB_ENV)
        assert ArtifactCache(str(tmp_path)).max_bytes is None

    def test_unwritable_root_degrades_gracefully(self, tmp_path):
        # A *file* where the cache directory should be defeats even
        # root: makedirs raises, store degrades, the run continues.
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        cache = ArtifactCache(str(blocker))
        collector = obs.Metrics()
        with obs.using(collector):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cache.store(cache.key("x"), 1) is None
                assert cache.store(cache.key("y"), 2) is None
        assert collector.counters["cache.unwritable"] == 2
        warned = [w for w in caught
                  if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == 1  # warned once, not per store
        assert "continuing uncached" in str(warned[0].message)
        # get_or_build still hands back the built value, uncached.
        assert cache.get_or_build("z", lambda: 42) == 42
        assert cache.get_or_build("z", lambda: 43) == 43  # no entry

    def test_chaos_corruption_is_detected_and_rebuilt(self, tmp_path):
        chaos = ChaosConfig(corrupt=1.0)
        cache = ArtifactCache(str(tmp_path), chaos=chaos)
        collector = obs.Metrics()
        with obs.using(collector):
            assert cache.get_or_build("thing", lambda: [1, 2, 3]) == \
                [1, 2, 3]  # chaos truncates the entry after the write
            assert collector.counters["chaos.cache_corrupt"] == 1
            # The next read detects the truncation instead of decoding
            # garbage, and rebuilds.
            assert cache.get_or_build("thing", lambda: [1, 2, 3]) == \
                [1, 2, 3]
        assert collector.counters["cache.corrupt"] == 1
        assert collector.counters["cache.miss"] == 2


class TestTmpOrphanReaping:
    """A SIGKILLed writer dies between mkstemp and os.replace — the
    sweep must reap the orphan (age-gated) and budget young ones."""

    @staticmethod
    def _orphan(tmp_path, age_s, size=64):
        """The exact on-disk state a killed writer leaves behind."""
        import tempfile

        fd, path = tempfile.mkstemp(dir=str(tmp_path), suffix=".tmp")
        os.write(fd, b"x" * size)  # partial, never replaced
        os.close(fd)
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_stale_tmp_is_reaped_even_without_a_budget(self, tmp_path):
        from repro.engine.cache import TMP_REAP_AGE_S

        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        orphan = self._orphan(tmp_path, age_s=TMP_REAP_AGE_S + 10)
        collector = obs.Metrics()
        with obs.using(collector):
            cache.store(cache.key("thing"), [1, 2, 3])
        assert not os.path.exists(orphan)
        assert collector.counters["cache.tmp_reaped"] == 1
        # The real entry was not collateral damage.
        assert cache.load(cache.key("thing")) == [1, 2, 3]

    def test_young_tmp_is_presumed_a_live_writer(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        orphan = self._orphan(tmp_path, age_s=1)
        collector = obs.Metrics()
        with obs.using(collector):
            cache.store(cache.key("thing"), [1, 2, 3])
        assert os.path.exists(orphan)  # not raced: could be mid-write
        assert "cache.tmp_reaped" not in collector.counters

    def test_young_tmp_counts_toward_the_size_budget(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        cache.store(cache.key("old"), "old" * 100)
        path_old, = tmp_path.glob("old-*.pkl")
        os.utime(path_old, (100, 100))
        entry_size = path_old.stat().st_size
        # Young scratch space fills most of the budget: the next store
        # must evict "old" even though two entries alone would fit.
        self._orphan(tmp_path, age_s=1, size=entry_size * 2)
        cache.max_bytes = entry_size * 3
        collector = obs.Metrics()
        with obs.using(collector):
            cache.store(cache.key("new"), "new" * 100)
        assert collector.counters["cache.evicted"] >= 1
        assert not path_old.exists()

    def test_array_store_reaps_stale_orphans_too(self, tmp_path):
        from repro.engine.cache import TMP_REAP_AGE_S

        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        orphan = self._orphan(tmp_path, age_s=TMP_REAP_AGE_S + 10)
        cache.store_arrays(cache.key("buf"), {"a": np.arange(8)})
        assert not os.path.exists(orphan)

    @fork_only
    def test_chaos_kill_run_leaves_no_orphans(self, tmp_path, monkeypatch):
        # End-to-end regression under the chaos harness: seeded worker
        # kills + a run that stores artifacts must end with zero .tmp
        # files in the cache dir.
        monkeypatch.setenv(CHAOS_ENV, "kill:0.4,seed:5")
        cache = ArtifactCache(str(tmp_path / "cache"), max_bytes=None)
        records = run_experiments(CHEAP, SMALL_SCALE, jobs=2, cache=cache)
        assert all(record.ok for record in records)
        orphans = [
            name for name in os.listdir(tmp_path / "cache")
            if name.endswith(".tmp")
        ] if (tmp_path / "cache").exists() else []
        assert orphans == []


class TestReadOnlyCacheDir:
    """A read-only cache dir must stay a warm *hit*: the os.utime
    recency refresh is best-effort, never load-path-fatal."""

    def test_pickle_hit_survives_readonly_dir(self, tmp_path, monkeypatch):
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        cache.store(cache.key("thing"), {"v": 7})

        # The container runs as root, so chmod cannot produce EPERM —
        # fail the mutating call directly instead.
        def denied(*args, **kwargs):
            raise PermissionError(13, "read-only cache")

        monkeypatch.setattr(os, "utime", denied)
        collector = obs.Metrics()
        with obs.using(collector):
            assert cache.load(cache.key("thing")) == {"v": 7}
            assert cache.get_or_build(
                "thing", lambda: pytest.fail("rebuilt on a warm hit")
            ) == {"v": 7}
        assert "cache.corrupt" not in collector.counters
        assert collector.counters["cache.hit"] == 1

    def test_array_mmap_hit_survives_readonly_dir(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        key = cache.key("buf")
        cache.store_arrays(key, {"a": np.arange(8, dtype=np.int64)},
                           meta={"tag": 1})

        def denied(*args, **kwargs):
            raise PermissionError(13, "read-only cache")

        monkeypatch.setattr(os, "utime", denied)
        collector = obs.Metrics()
        with obs.using(collector):
            loaded = cache.load_arrays(key)
        assert loaded is not None
        buffers, meta = loaded
        assert meta == {"tag": 1}
        assert list(buffers["a"]) == list(range(8))
        assert "cache.corrupt" not in collector.counters
        assert collector.counters["cache.arrays.mmap"] == 1


class TestTimeoutDeclaration:
    def test_module_timeout_overrides(self, monkeypatch):
        def run():
            return None

        _register_synthetic(monkeypatch, "with-deadline", run,
                            TIMEOUT_S=900)
        try:
            assert get_spec("with-deadline").timeout_s() == 900.0
        finally:
            unregister("with-deadline")

    @pytest.mark.parametrize("declared", ["soon", -1, 0])
    def test_bad_timeout_s_fails_fast(self, monkeypatch, declared):
        def run():
            return None

        _register_synthetic(monkeypatch, "bad-deadline", run,
                            TIMEOUT_S=declared)
        try:
            with pytest.raises(ValueError, match="TIMEOUT_S"):
                run_experiments(["bad-deadline"], SMALL_SCALE)
        finally:
            unregister("bad-deadline")


@fork_only
class TestDeadlineWatchdog:
    def test_hung_experiment_times_out(self, monkeypatch):
        def run():
            time.sleep(60)

        _register_synthetic(monkeypatch, "sleeper", run, TIMEOUT_S=0.5)
        try:
            started = time.monotonic()
            record, = run_experiments(
                ["sleeper"], SMALL_SCALE, retry_policy=FAST_POLICY,
            )
            elapsed = time.monotonic() - started
        finally:
            unregister("sleeper")
        assert record.status == STATUS_TIMEOUT
        assert not record.ok
        assert record.attempts == FAST_POLICY.max_attempts
        assert "deadline" in record.error
        assert elapsed < 10  # two 0.5s deadlines + backoff, not 60s

    def test_cli_timeout_applies_without_module_override(
        self, monkeypatch
    ):
        def run():
            time.sleep(60)

        _register_synthetic(monkeypatch, "cli-sleeper", run)
        try:
            record, = run_experiments(
                ["cli-sleeper"], SMALL_SCALE, timeout_s=0.5,
                retry_policy=FAST_POLICY,
            )
        finally:
            unregister("cli-sleeper")
        assert record.status == STATUS_TIMEOUT

    def test_hung_worker_does_not_break_bystanders(self, monkeypatch):
        def run():
            time.sleep(60)

        _register_synthetic(monkeypatch, "pool-sleeper", run,
                            TIMEOUT_S=0.5)
        try:
            records = run_experiments(
                ["compact-routing", "pool-sleeper", "envelope"],
                SMALL_SCALE, jobs=2, retry_policy=FAST_POLICY,
            )
        finally:
            unregister("pool-sleeper")
        statuses = {r.name: r.status for r in records}
        assert statuses == {
            "compact-routing": "ok",
            "pool-sleeper": "timeout",
            "envelope": "ok",
        }


@fork_only
class TestCrashRecovery:
    def test_crash_once_then_recover(self, monkeypatch, tmp_path):
        sentinel = tmp_path / "died-once"

        def run():
            if not sentinel.exists():
                sentinel.write_text("x")
                os._exit(9)
            return None

        _register_synthetic(monkeypatch, "flaky-crasher", run)
        try:
            record, = run_experiments(
                ["flaky-crasher"], SMALL_SCALE, jobs=2,
                timeout_s=60, retry_policy=FAST_POLICY,
            )
        finally:
            unregister("flaky-crasher")
        assert record.ok
        assert record.attempts == 2  # first dispatch died, second ran

    def test_chaos_kill_run_still_completes(self, monkeypatch):
        # kill:0.4 with 4 attempts: every experiment survives because
        # chaos draws are independent per attempt, and survivors'
        # digests match a chaos-free serial run exactly.
        clean = run_experiments(CHEAP, SMALL_SCALE)
        monkeypatch.setenv(CHAOS_ENV, "kill:0.4,seed:2")
        chaotic = run_experiments(CHEAP, SMALL_SCALE, jobs=2,
                                  timeout_s=120)
        assert all(r.ok for r in chaotic), \
            [(r.name, r.error) for r in chaotic]
        for clean_r, chaos_r in zip(clean, chaotic):
            assert clean_r.series_digests == chaos_r.series_digests
            assert clean_r.output == chaos_r.output


class TestResumeDeterminism:
    def _digests(self, entry):
        return {
            name: exp["series_digests"]
            for name, exp in entry["experiments"].items()
        }

    @pytest.mark.parametrize("kill_point", [0, 1, 2])
    def test_resume_matches_uninterrupted_run(self, tmp_path, kill_point):
        # Baseline: one uninterrupted ledgered run.
        baseline_dir = tmp_path / "baseline"
        assert _run(CHEAP, "small", ledger_dir=str(baseline_dir)) == 0
        baseline = obs.RunLedger(str(baseline_dir)).latest()

        # Interrupted run: journal only the first ``kill_point``
        # completions, exactly what a SIGKILL at that moment leaves.
        resumed_dir = tmp_path / "resumed"
        run_id = obs.new_run_id()
        journal = RunJournal.create(
            str(resumed_dir), run_id, scale_label="small",
            seed=SMALL_SCALE.seed, names=CHEAP,
        )
        partial = run_experiments(CHEAP[:kill_point], SMALL_SCALE,
                                  on_record=journal.record)
        assert len(partial) == kill_point

        # Resume finishes the rest and stitches one full entry.
        assert _run(
            CHEAP, "small", ledger_dir=str(resumed_dir), resume=run_id,
        ) == 0
        entry = obs.RunLedger(str(resumed_dir)).latest()
        assert entry["resumed_from"] == run_id
        assert entry["run_id"] != run_id
        assert self._digests(entry) == self._digests(baseline)
        resumed_flags = {
            name: exp["resumed"]
            for name, exp in entry["experiments"].items()
        }
        assert sum(resumed_flags.values()) == kill_point
        # The journal now covers the whole run: resuming the resume is
        # a no-op that still stitches a complete, identical entry.
        assert _run(
            CHEAP, "small", ledger_dir=str(resumed_dir), resume=run_id,
        ) == 0
        again = obs.RunLedger(str(resumed_dir)).latest()
        assert self._digests(again) == self._digests(baseline)
        assert all(
            exp["resumed"] for exp in again["experiments"].values()
        )

    def test_failed_experiments_are_rerun_on_resume(self, tmp_path):
        # Only ok records satisfy a resume: a journaled failure is
        # computed again, not resurrected.
        run_id = obs.new_run_id()
        journal = RunJournal.create(
            str(tmp_path), run_id, scale_label="small",
            seed=SMALL_SCALE.seed, names=CHEAP,
        )
        journal.record(RunRecord("table1", "error", 0.1, error="boom"))
        assert set(journal.completed()) == set()
        assert _run(
            CHEAP, "small", ledger_dir=str(tmp_path), resume=run_id,
        ) == 0
        entry = obs.RunLedger(str(tmp_path)).latest()
        exp = entry["experiments"]["table1"]
        assert exp["status"] == "ok"
        assert exp["resumed"] is False
