"""Bench: the array-native control plane.

Two measurements:

* **cold oracle build** — one frontier-batched sweep over every
  destination (``routes_to_many``), spot-checked against the dict-BFS
  reference in ``tests/reference``;
* **pooled fan-out** — ``run_experiments`` with ``--jobs``-style
  pooling, asserting through the metrics stream that the workers
  inherit the World the parent built before the pool started: no
  record opens a topology, oracle or CSR build of its own.

Times are recorded as ``bench.control_plane.*`` gauges.
"""

import multiprocessing
import time

import pytest
from conftest import run_once

from repro import obs
from repro.engine import run_experiments, runner
from repro.routing import RoutingOracle

from tests.reference.routing import assert_same_routes, compute_routes


def test_oracle_cold_build(benchmark, world, scale):
    topo = world.topology
    dests = sorted(topo.ases)

    def cold_batch():
        oracle = RoutingOracle(topo)
        return oracle.routes_to_many(dests)

    start = time.perf_counter()
    batch = run_once(benchmark, cold_batch)
    vector_s = time.perf_counter() - start

    for dest in dests[:: max(1, len(dests) // 25)]:  # spot-check parity
        assert_same_routes(
            batch.materialize(dest), compute_routes(topo, dest), dest
        )

    obs.gauge("bench.control_plane.oracle.vector_s", vector_s)
    print(
        f"cold oracle build [{scale.label}]: {len(dests)} dests, "
        f"frontier {vector_s:.3f}s, parity ok"
    )


_FANOUT_EXPERIMENTS = ["fig8", "fig10", "fig12"]


def _pooled(scale, jobs):
    """(records, merged metrics snapshot, seconds) for a pooled run."""
    metrics = obs.Metrics()
    start = time.perf_counter()
    with obs.using(metrics):
        records = run_experiments(
            _FANOUT_EXPERIMENTS, scale, jobs=jobs, cache=None
        )
    return records, metrics.snapshot(), time.perf_counter() - start


def _span_names(spans):
    for span in spans:
        yield span["name"]
        yield from _span_names(span["children"])


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the parent's World only when forked",
)
def test_pooled_workers_inherit_world(benchmark, scale, monkeypatch):
    monkeypatch.setattr(runner, "_WORLDS", {})
    records, snap, pooled_s = run_once(benchmark, _pooled, scale, 2)
    assert all(record.ok for record in records), [
        (record.name, record.status) for record in records
    ]
    for record in records:
        opened = {
            "world.topology", "world.oracle", "routing.batch.csr_build"
        } & set(_span_names(record.metrics["spans"]))
        assert not opened, (record.name, opened)
    assert "runner.prebuild_failed" not in snap["counters"]

    obs.gauge("bench.control_plane.fanout.array_s", pooled_s)
    print(
        f"pooled fan-out [{scale.label}]: {len(records)} experiments, "
        f"inherited World {pooled_s:.3f}s"
    )
