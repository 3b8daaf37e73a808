"""Bench: the array-native control plane.

Two measurements:

* **cold oracle build** — the routes to every destination
  (``routes_to_many``) from a fresh oracle, on the World's topology and
  on a ~2,100-AS Internet, each spot-checked against the dict-BFS
  reference in ``tests/reference``;
* **pooled fan-out** — ``run_experiments`` with ``--jobs``-style
  pooling, asserting through the metrics stream that the workers
  inherit the World the parent built before the pool started: no
  record opens a topology, oracle, CSR or route-table build of its
  own.

Times are recorded as ``bench.control_plane.*`` gauges.
"""

import multiprocessing
import time

import pytest
from conftest import run_once

from repro import obs
from repro.engine import run_experiments, runner
from repro.routing import RoutingOracle
from repro.topology import ASTopologyConfig, generate_as_topology

from tests.reference.routing import assert_same_routes, compute_routes

#: A ~2,100-AS Internet (2,124 ASes at the default seed): the size of
#: the one the benchmark's device-routing workload routes.
INTERNET = dict(
    t2_per_region=12,
    stubs_per_region=180,
    prefixes_per_stub=(1, 1),
    prefixes_per_t2=(2, 3),
    prefixes_per_t1=(2, 4),
)


def _cold_batch(topo):
    """A fresh oracle's tables to every AS of ``topo``."""
    return RoutingOracle(topo).routes_to_many(sorted(topo.ases))


def _spot_check(topo, batch):
    """About 25 destinations of ``batch`` equal the dict-BFS sweep."""
    dests = batch.dests.tolist()
    for dest in dests[:: max(1, len(dests) // 25)]:
        assert_same_routes(
            batch.materialize(dest), compute_routes(topo, dest), dest
        )


def test_oracle_cold_build(benchmark, world, scale):
    topo = world.topology
    start = time.perf_counter()
    batch = run_once(benchmark, _cold_batch, topo)
    vector_s = time.perf_counter() - start
    _spot_check(topo, batch)

    internet = generate_as_topology(ASTopologyConfig(**INTERNET))
    start = time.perf_counter()
    internet_batch = _cold_batch(internet)
    internet_s = time.perf_counter() - start
    _spot_check(internet, internet_batch)

    obs.gauge("bench.control_plane.oracle.vector_s", vector_s)
    obs.gauge("bench.control_plane.oracle.internet_s", internet_s)
    print(
        f"cold oracle build [{scale.label}]: {len(topo)} dests, "
        f"frontier {vector_s:.3f}s; Internet {len(internet)} dests, "
        f"{internet_s:.3f}s; parity ok"
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
            "world.topology", "world.oracle", "routing.batch.csr_build",
            "routing.batch.compute",
        } & set(_span_names(record.metrics["spans"]))
        assert not opened, (record.name, opened)
    assert "runner.prebuild_failed" not in snap["counters"]

    obs.gauge("bench.control_plane.fanout.array_s", pooled_s)
    print(
        f"pooled fan-out [{scale.label}]: {len(records)} experiments, "
        f"inherited World {pooled_s:.3f}s"
    )
