"""Tests of the benchmark harness itself: ``python -m pytest bench -q``."""

import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import child
import compare
import run
import tracing
from tracing import LAYERS, Tracer, install, layer_metrics, uninstall
from workloads import INTERNET_TOPOLOGY, require_prefixes

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_installer_reaches_calls_made_through_world():
    from repro.experiments import ExperimentScale, World
    from repro.experiments import context
    from repro.mobility import synth

    original = synth.generate_workload
    tracer = install(Tracer())
    try:
        assert context.generate_workload is not original
        world = World(ExperimentScale("tiny", num_users=4, device_days=1,
                                      content_days=1,
                                      num_popular_domains=20))
        workload = world.workload
    finally:
        uninstall(tracer)
    assert context.generate_workload is original
    assert synth.generate_workload is original
    stats = layer_metrics(tracer.spans())
    assert stats["mobility.generate_workload"]["calls"] == 1
    assert stats["topology.generate_as_topology"]["calls"] == 1
    assert tracer.counts["mobility.generate_workload.events"] == len(
        workload.all_transitions())


def test_self_time_excludes_nested_wrapped_calls(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracing, "perf_counter", lambda: clock[0])
    tracer = Tracer()

    def tick(seconds):
        clock[0] += seconds

    inner = tracer.wrap("inner", lambda: tick(5.0))

    def body():
        tick(2.0)
        inner()
        tick(1.0)
        inner()

    outer = tracer.wrap("outer", body)
    with tracer.span("experiments.demo"):
        outer()
        tick(0.5)
    stats = layer_metrics(tracer.spans())
    assert stats["inner"] == {"calls": 2, "self_s": 10.0}
    assert stats["outer"] == {"calls": 1, "self_s": 3.0}
    assert stats["experiments.demo"] == {"calls": 1, "self_s": 0.5}


def _fake_spawn(golden_units):
    """A spawner returning canned child results with every layer traced."""
    tracer = Tracer()
    for layer, *_ in LAYERS:
        with tracer.span(layer):
            pass
    tracer.counts.update({"core.content_evaluate.events": 7})

    def spawn(workload, seed, mode):
        units = {name: {"ok": True, "digests": digests}
                 for name, digests in golden_units.items()}
        return {
            "units": units, "setup_at": 1.0, "end_at": 3.0, "cpu_s": 2.5,
            "peak_rss_mb": 100.0, "wall_s": 2.5, "busy_s": 2.0,
            "setup_s": 0.5, "spans": tracer.spans(),
            "counts": dict(tracer.counts),
        }

    return spawn


def test_run_repeats_passes_within_its_seconds_and_reports_medians(
        monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    walls = iter([3.0, 9.0, 4.0, 2.0, 6.0, 4.0])

    def spawn(workload, seed, mode):
        wall = next(walls)
        clock[0] += wall
        return {"wall_s": wall, "setup_s": wall / 10, "cpu_s": wall,
                "peak_rss_mb": 100.0 + wall}

    outcome = run.measure("w", 1, 25.0, spawn)
    # 3 + 9 + 4 = 16 s; a fourth pass as long as the longest (9 s) would
    # end at 25 s, so it still runs; after it, a fifth would not fit.
    assert clock[0] == 18.0 and len(outcome["passes"]) == 4
    assert outcome["values"] == pytest.approx({
        "wall_s": 3.5, "setup_s": 0.35, "cpu_s": 3.5, "peak_rss_mb": 103.5})
    # One pass at least, however short the budget.
    assert len(run.measure("w", 1, 0.0, spawn)["passes"]) == 1


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_are_declared(trace):
    spec, golden = run.load_spec(), run.load_golden()
    declared = spec["per_layer" if trace else "end_to_end"]
    for workload in run.WORKLOADS:
        result = run.run_workload(
            workload, golden["seed"], 0.0, trace, spec, golden,
            _fake_spawn(golden["workloads"][workload]))
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert isinstance(metric["value"], (int, float))


def test_output_check_pins_digests_at_the_golden_seed_only():
    golden = {"u": {"s": "aaaa"}}

    def produced(digests):
        return {"units": {"u": {"ok": True, "digests": digests}}}

    same, other = produced({"s": "aaaa"}), produced({"s": "bbbb"})
    assert run.check_units(golden, 2014, 2014, [same, same])[:2] == (2, 0)
    assert run.check_units(golden, 2014, 2014, [other])[:2] == (1, 1)
    assert run.check_units(golden, 2014, 7, [other, other])[:2] == (2, 0)
    assert run.check_units(golden, 2014, 7, [other, same])[:2] == (2, 1)
    # Other series than the golden file lists, or a dead pass, fail.
    assert run.check_units(golden, 2014, 7, [produced({}), None])[:2] == (
        2, 2)


def test_declared_layer_metrics_name_real_layers():
    from repro.engine.registry import experiment_names

    layers = {layer for layer, *_ in LAYERS}
    layers |= {f"experiments.{name}" for name in experiment_names()}
    for metric in run.load_spec()["per_layer"]:
        layer, _, key = metric["name"].rpartition(".")
        assert layer in layers or layer == "trace", layer
        assert NAME.fullmatch(key)


def _usage_of(code: str) -> dict:
    script = (f"import json, sys; sys.path.insert(0, {str(BENCH)!r})\n"
              f"{code}\n"
              f"from child import usage; print(json.dumps(usage()))")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def test_peak_rss_is_read_per_child_not_in_run_py():
    grow = "block = b'x' * (64 << 20)"
    big = _usage_of(grow)["peak_rss_mb"]
    small = _usage_of("")["peak_rss_mb"]
    assert big > 64 > small
    # A child's reaped descendants count toward that child...
    nested = _usage_of(
        "import subprocess; subprocess.run([sys.executable, '-c', "
        f"{grow!r}], check=True)")["peak_rss_mb"]
    assert nested > 64
    # ...and run.py, which reaps every child, never reads rusage.
    assert "getrusage" not in inspect.getsource(run)
    assert "getrusage" in inspect.getsource(child.usage)


def test_internet_scale_input_guard():
    from repro.topology import ASTopologyConfig, generate_as_topology

    require_prefixes(generate_as_topology(
        ASTopologyConfig(seed=2014, **INTERNET_TOPOLOGY)))
    exhausted = generate_as_topology(
        ASTopologyConfig(t2_per_region=20, stubs_per_region=150))
    with pytest.raises(ValueError, match="own no prefix"):
        require_prefixes(exhausted)


def test_compare_verdicts():
    a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(a, [v * 0.8 for v in a], 0.1, True)[0] == "better"
    assert compare.verdict(a, [v * 1.2 for v in a], 0.1, True)[0] == "worse"
    assert compare.verdict(a, list(reversed(a)), 0.1, True)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0]
    assert compare.verdict(noisy, noisy, 0.1, True)[0] == "unresolved"
    # Higher-is-better metrics win the other way round.
    assert compare.verdict(a, [v * 1.2 for v in a], 0.1, False)[0] == "better"


def test_compare_flags_digest_disagreement():
    def run_at(seed, digest):
        return {"seed": seed, "workloads": {
            "w": {"digests": {"unit": {"series": digest}}}}}

    assert compare.digest_disagreements(
        [run_at(1, "a"), run_at(1, "a"), run_at(2, "b")]) == []
    assert compare.digest_disagreements(
        [run_at(1, "a"), run_at(1, "c")]) == ["w at seed 1"]
