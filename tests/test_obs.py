"""The observability layer: counters, gauges, spans, snapshot/merge."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import Metrics


class TestCounters:
    def test_incr_accumulates(self):
        m = Metrics()
        m.incr("a")
        m.incr("a", 2)
        m.incr("b", 0.5)
        assert m.counters == {"a": 3, "b": 0.5}

    def test_gauge_keeps_latest(self):
        m = Metrics()
        m.gauge("size", 10)
        m.gauge("size", 3)
        assert m.gauges == {"size": 3}


class TestSpans:
    def test_nesting_mirrors_call_structure(self):
        m = Metrics()
        with m.span("outer"):
            with m.span("inner"):
                pass
            with m.span("inner"):
                pass
        with m.span("other"):
            pass
        assert [s["name"] for s in m.spans] == ["outer", "other"]
        outer = m.spans[0]
        assert [c["name"] for c in outer["children"]] == ["inner", "inner"]
        assert outer["duration_s"] >= sum(
            c["duration_s"] for c in outer["children"]
        )

    def test_span_recorded_on_exception(self):
        m = Metrics()
        with pytest.raises(RuntimeError):
            with m.span("outer"):
                with m.span("inner"):
                    raise RuntimeError("boom")
        assert [s["name"] for s in m.spans] == ["outer"]
        assert m.spans[0]["children"][0]["name"] == "inner"
        assert not m._stack  # fully unwound

    def test_timers_aggregate_across_the_tree(self):
        m = Metrics()
        with m.span("a"):
            with m.span("b"):
                pass
        with m.span("b"):
            pass
        timers = m.timers
        assert timers["a"]["count"] == 1
        assert timers["b"]["count"] == 2
        assert timers["b"]["total_s"] >= 0

    def test_self_time_excludes_direct_children(self):
        # A parent that does nothing but wait for its child must not
        # be blamed for the child's work: self_s ~ 0 while total
        # contains the child's sleep.
        m = Metrics()
        with m.span("parent"):
            with m.span("child"):
                time.sleep(0.02)
        parent = m.spans[0]
        child = parent["children"][0]
        assert child["self_s"] == pytest.approx(child["duration_s"])
        assert parent["self_s"] == pytest.approx(
            parent["duration_s"] - child["duration_s"]
        )
        assert parent["self_s"] < 0.5 * parent["duration_s"]
        timers = m.timers
        assert timers["parent"]["self_s"] == pytest.approx(
            parent["self_s"]
        )
        # Exclusive times sum to the root duration: attribution adds
        # up instead of double-counting nested spans.
        assert (timers["parent"]["self_s"] + timers["child"]["self_s"]
                == pytest.approx(parent["duration_s"]))

    def test_spans_carry_start_offsets(self):
        m = Metrics()
        with m.span("first"):
            pass
        time.sleep(0.01)
        with m.span("second"):
            with m.span("nested"):
                pass
        first, second = m.spans
        assert 0 <= first["start_s"] <= second["start_s"]
        nested = second["children"][0]
        assert nested["start_s"] >= second["start_s"]


class TestSnapshot:
    def test_snapshot_is_json_and_detached(self):
        m = Metrics()
        m.incr("c")
        with m.span("s"):
            pass
        snap = m.snapshot()
        json.dumps(snap)  # must be pure JSON
        snap["counters"]["c"] = 999
        snap["spans"].clear()
        assert m.counters["c"] == 1
        assert len(m.spans) == 1

    def test_merge_sums_counters_maxes_gauges_extends_spans(self):
        a, b = Metrics(), Metrics()
        a.incr("n", 2)
        a.gauge("g", 5)
        with a.span("x"):
            pass
        b.incr("n", 3)
        b.incr("only-b")
        b.gauge("g", 4)
        with b.span("y"):
            pass
        a.merge(b.snapshot())
        assert a.counters == {"n": 5, "only-b": 1}
        assert a.gauges == {"g": 5}
        assert [s["name"] for s in a.spans] == ["x", "y"]
        assert a.timers["y"]["count"] == 1

    def test_merge_snapshots_is_order_independent(self):
        snaps = []
        for value in (1, 2, 3):
            m = Metrics()
            m.incr("n", value)
            m.gauge("g", value)
            snaps.append(m.snapshot())
        forward = obs.merge_snapshots(snaps)
        backward = obs.merge_snapshots(reversed(snaps))
        assert forward["counters"] == backward["counters"] == {"n": 6}
        assert forward["gauges"] == backward["gauges"] == {"g": 3}

    def test_merge_skips_none_and_empty(self):
        merged = obs.merge_snapshots([None, {}, {"counters": {"n": 1}}])
        assert merged["counters"] == {"n": 1}

    def test_size_gauges_merge_by_sum_others_by_max(self):
        # Each worker grows its own route cache; aggregate memory is
        # the sum. Non-size gauges keep the max rule.
        snaps = []
        for value in (10, 3):
            m = Metrics()
            m.gauge("oracle.route_cache.size", value)
            m.gauge("high_water", value)
            snaps.append(m.snapshot())
        merged = obs.merge_snapshots(snaps)
        assert merged["gauges"]["oracle.route_cache.size"] == 13
        assert merged["gauges"]["high_water"] == 10


#: Gauge names exercising both merge rules.
_GAUGE_NAMES = st.sampled_from(
    ["cache.size", "pool.size", "high_water", "depth"]
)
_SNAPSHOT = st.builds(
    lambda counters, gauges: {"counters": counters, "gauges": gauges},
    st.dictionaries(st.sampled_from(["a", "b", "c"]),
                    st.integers(min_value=-100, max_value=100),
                    max_size=3),
    st.dictionaries(_GAUGE_NAMES,
                    st.integers(min_value=0, max_value=100),
                    max_size=4),
)


class TestMergeAlgebra:
    """Property tests: snapshot merge is a commutative monoid."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_SNAPSHOT, max_size=5), st.randoms())
    def test_merge_is_order_independent(self, snaps, rng):
        shuffled = list(snaps)
        rng.shuffle(shuffled)
        forward = obs.merge_snapshots(snaps)
        permuted = obs.merge_snapshots(shuffled)
        assert forward["counters"] == permuted["counters"]
        assert forward["gauges"] == permuted["gauges"]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_SNAPSHOT, min_size=2, max_size=5),
           st.integers(min_value=1))
    def test_merge_is_associative(self, snaps, cut):
        # Merging everything at once equals merging a prefix-merge
        # with a suffix-merge — the property that makes per-worker
        # pre-aggregation legal.
        cut = cut % len(snaps)
        flat = obs.merge_snapshots(snaps)
        grouped = obs.merge_snapshots([
            obs.merge_snapshots(snaps[:cut]),
            obs.merge_snapshots(snaps[cut:]),
        ])
        assert flat["counters"] == grouped["counters"]
        assert flat["gauges"] == grouped["gauges"]

    @settings(max_examples=25, deadline=None)
    @given(_SNAPSHOT)
    def test_empty_snapshot_is_identity(self, snap):
        merged = obs.merge_snapshots([{}, snap, {}])
        alone = obs.merge_snapshots([snap])
        assert merged["counters"] == alone["counters"]
        assert merged["gauges"] == alone["gauges"]


#: Synthetic resource observations as (rss_mb, cpu_s, degraded) triples.
_RESOURCE_OBS = st.tuples(
    st.integers(min_value=1, max_value=4096),
    st.integers(min_value=0, max_value=500),
    st.booleans(),
)


class TestResourceMergeDeterminism:
    """Serial and pooled runs must agree on merged resource metrics.

    A serial run records every reading into one registry; a pooled run
    records them into per-worker registries whose snapshots the driver
    merges. Both must land on identical counters and gauges — this is
    the property that lets ``peak_rss_mb`` / ``cpu_s`` appear in
    RunRecords without threatening the ledger's determinism contract.
    CPU counters use integer-valued floats so float summation order
    cannot blur the comparison: the property under test is the merge
    algebra, not IEEE addition.
    """

    @staticmethod
    def _record(registry, obs_triple):
        from repro.obs.resources import ResourceSample, _record_sample

        rss, cpu, degraded = obs_triple
        sample = ResourceSample(
            rss_mb=float(rss), peak_rss_mb=float(rss),
            cpu_s=float(cpu), degraded=degraded,
        )
        _record_sample(registry, sample, cpu_delta=float(cpu))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_RESOURCE_OBS, min_size=1, max_size=12),
           st.integers(min_value=1, max_value=4))
    def test_serial_equals_pooled(self, observations, workers):
        serial = Metrics()
        for obs_triple in observations:
            self._record(serial, obs_triple)

        pools = [Metrics() for _ in range(workers)]
        for index, obs_triple in enumerate(observations):
            self._record(pools[index % workers], obs_triple)
        merged = obs.merge_snapshots(p.snapshot() for p in pools)

        assert merged["counters"] == serial.snapshot()["counters"]
        assert merged["gauges"] == serial.snapshot()["gauges"]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_RESOURCE_OBS, min_size=2, max_size=10),
           st.randoms())
    def test_merge_order_does_not_matter(self, observations, rng):
        registries = []
        for obs_triple in observations:
            m = Metrics()
            self._record(m, obs_triple)
            registries.append(m.snapshot())
        shuffled = list(registries)
        rng.shuffle(shuffled)
        forward = obs.merge_snapshots(registries)
        permuted = obs.merge_snapshots(shuffled)
        assert forward["counters"] == permuted["counters"]
        assert forward["gauges"] == permuted["gauges"]


class TestProcessLocalRegistry:
    def test_module_helpers_hit_current_registry(self):
        fresh = obs.reset_metrics()
        obs.incr("top")
        obs.gauge("g", 1)
        with obs.span("s"):
            pass
        assert fresh.counters == {"top": 1}
        assert fresh.timers["s"]["count"] == 1

    def test_using_scopes_and_restores(self):
        outer = obs.reset_metrics()
        scoped = Metrics()
        with obs.using(scoped):
            assert obs.metrics() is scoped
            obs.incr("inner")
        assert obs.metrics() is outer
        assert scoped.counters == {"inner": 1}
        assert "inner" not in outer.counters

    def test_using_restores_on_exception(self):
        outer = obs.reset_metrics()
        with pytest.raises(ValueError):
            with obs.using(Metrics()):
                raise ValueError()
        assert obs.metrics() is outer

    def test_reset_returns_fresh_registry(self):
        obs.incr("stale")
        fresh = obs.reset_metrics()
        assert obs.metrics() is fresh
        assert fresh.counters == {}


class _FakeRecord:
    def __init__(self, name, started_at, metrics):
        self.name = name
        self.started_at = started_at
        self.metrics = metrics


class TestTraceViz:
    def _record(self, name, started_at):
        m = Metrics()
        with m.span("outer"):
            with m.span("inner"):
                pass
        return _FakeRecord(name, started_at, m.snapshot())

    def test_chrome_trace_structure(self):
        doc = obs.chrome_trace([self._record("fig8", 100.0)])
        json.dumps(doc)  # must be pure JSON
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} >= {"fig8"}
        assert [e["name"] for e in spans] == ["outer", "inner"]
        for event in spans:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid",
                                  "tid", "cat", "args"}
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_workers_are_offset_corrected(self):
        # Records from different (wall-clock) start times land on one
        # timeline: the later record's spans start later.
        early = self._record("early", 100.0)
        late = self._record("late", 101.5)
        doc = obs.chrome_trace([late, early])  # order must not matter
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_tid = {}
        for event in spans:
            by_tid.setdefault(event["tid"], []).append(event)
        tids = {e["args"]["name"]: e["tid"]
                for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"}
        late_ts = min(e["ts"] for e in by_tid[tids["late"]])
        early_ts = min(e["ts"] for e in by_tid[tids["early"]])
        assert late_ts - early_ts >= 1.4e6  # ~1.5s in microseconds

    def test_nested_span_lies_within_parent(self):
        doc = obs.chrome_trace([self._record("x", 50.0)])
        outer, inner = [e for e in doc["traceEvents"]
                        if e["ph"] == "X"]
        assert outer["ts"] <= inner["ts"]
        assert (inner["ts"] + inner["dur"]
                <= outer["ts"] + outer["dur"] + 1)  # 1us rounding slack

    def test_span_readings_ride_into_event_args(self):
        # Every span, nested or not, reads its own CPU and RSS at exit,
        # and the Chrome trace shows them next to self_us.
        m = Metrics()
        with m.span("outer"):
            with m.span("inner"):
                sum(i * i for i in range(200_000))
        outer = m.spans[0]
        inner = outer["children"][0]
        for frame in (outer, inner):
            assert frame["rss_mb"] > 1.0
            assert frame["peak_rss_mb"] >= frame["rss_mb"]
        assert inner["cpu_s"] > 0.0
        assert outer["cpu_s"] >= inner["cpu_s"]  # children included
        doc = obs.chrome_trace([_FakeRecord("x", 1.0, m.snapshot())])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for event, frame in zip(events, (outer, inner)):
            assert event["name"] == frame["name"]
            for key in ("cpu_s", "rss_mb", "peak_rss_mb"):
                assert event["args"][key] == frame[key]

    def test_write_chrome_trace_round_trips(self, tmp_path):
        # Parent directories are created on demand.
        path = str(tmp_path / "deep" / "trace.json")
        assert obs.write_chrome_trace(
            [self._record("x", 1.0)], path
        ) == path
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]
