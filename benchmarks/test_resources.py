"""Bench: span-reading overhead and peak-RSS plausibility.

Pins the two properties the telemetry layer must keep:

* readings are near-free — every span reads its own CPU and RSS at
  exit, and the spans fig8 opens, times the measured cost of one span,
  must stay under 1% of fig8's wall time, so leaving telemetry on for
  every run (which the engine does) never distorts the measurements it
  reports;
* ``peak_rss_mb`` measures something real — a strictly larger workload
  built in a fresh interpreter must report at least the peak RSS of a
  smaller one, so budget bands track memory, not noise.
"""

import os
import subprocess
import sys
import time

from repro import obs
from repro.engine import get_spec, load_registry
from repro.experiments import World

#: Timed repetitions per measurement (min-of-N defeats warm-up noise).
ROUNDS = 3

#: Empty spans timed per round for the per-span cost.
SPANS_PER_ROUND = 2000

#: The budget under test: span readings' share of fig8's wall time.
MAX_OVERHEAD_FRACTION = 0.01


def _count_spans(nodes):
    return sum(1 + _count_spans(node["children"]) for node in nodes)


def _span_cost_s():
    """Wall seconds one empty span costs, readings included."""
    best = float("inf")
    for _ in range(ROUNDS):
        registry = obs.Metrics()
        start = time.perf_counter()
        for _ in range(SPANS_PER_ROUND):
            with registry.span("bench.empty"):
                pass
        best = min(best, (time.perf_counter() - start) / SPANS_PER_ROUND)
    return best


def test_span_readings_under_1pct_of_fig8(scale):
    # A fresh, cache-less World per round: fig8 pays for its substrate
    # and opens the World-build spans, as a cold `repro run fig8` does.
    # Min-of-N keeps noise from inflating the wall, the denominator.
    load_registry()
    spec = get_spec("fig8")
    best_wall = float("inf")
    for _ in range(ROUNDS):
        world = World(scale)
        registry = obs.Metrics()
        start = time.perf_counter()
        with obs.using(registry):
            spec.execute(world)
        best_wall = min(best_wall, time.perf_counter() - start)
    spans = _count_spans(registry.spans)
    per_span_s = _span_cost_s()
    overhead_s = spans * per_span_s
    print(f"fig8 wall {best_wall:.3f}s, {spans} span(s) x "
          f"{per_span_s * 1e6:.1f}us = {overhead_s * 1e3:.2f}ms "
          f"({overhead_s / best_wall * 100:.3f}%)")
    assert spans > 0
    assert overhead_s < MAX_OVERHEAD_FRACTION * best_wall


_PEAK_SCRIPT = """
import dataclasses, json, sys
from repro.experiments import SMALL_SCALE, World
from repro.obs.resources import sample_resources

scale = dataclasses.replace(
    SMALL_SCALE, num_users=int(sys.argv[1]),
    device_days=int(sys.argv[2]),
)
world = World(scale)
world.workload  # force the mobility tables into memory
world.device_event_columns  # ...and the columnar event arrays
print(json.dumps({"peak_rss_mb": sample_resources().peak_rss_mb}))
"""


def _peak_rss_at(num_users: int, device_days: int) -> float:
    import json

    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = "off"  # build, don't mmap a cached blob
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT,
         str(num_users), str(device_days)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def test_peak_rss_is_monotone_in_scale():
    # Fresh interpreters (peak RSS is a process-lifetime high-water
    # mark) building a 1x and a ~6x workload: the bigger build must
    # never report a *lower* peak, or the budget bands bound nothing.
    small = _peak_rss_at(60, 3)
    large = _peak_rss_at(600, 14)
    print(f"peak RSS: {small:.1f} MB (60 users x 3 days) -> "
          f"{large:.1f} MB (600 users x 14 days)")
    assert small > 0
    assert large >= small
