"""Bench: the columnar data plane, checked against the per-event reference.

Times the vectorized device, per-day and content update-rate
evaluations under the benchmark timer, then recomputes the identical
workload with the per-event loops in ``tests/reference`` and asserts
identical reports — the parity contract. Route caches are warmed before
the measurement so it times the evaluation itself, not BGP route
computation. Times are recorded through the existing obs metrics
plumbing (``bench.columnar.*``).
"""

import time

from conftest import run_once

from repro import obs
from repro.core import (
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    per_day_update_rates,
)

from tests.reference.evaluators import (
    content_report,
    device_report,
    per_day_rates,
)


def test_device_columnar(benchmark, world, scale):
    columns = world.device_event_columns
    evaluator = DeviceUpdateCostEvaluator(world.routeviews, world.oracle)
    evaluator.evaluate(columns)  # warm the per-prefix route caches

    start = time.perf_counter()
    vector = run_once(benchmark, evaluator.evaluate, columns)
    vector_s = time.perf_counter() - start
    reference = device_report(world.routeviews, world.oracle, columns)

    assert vector.rates == reference.rates
    assert vector.updates == reference.updates
    assert vector.num_events == reference.num_events

    obs.gauge("bench.columnar.device.vector_s", vector_s)
    print(
        f"device update rates [{scale.label}]: {len(columns)} events, "
        f"vector {vector_s:.3f}s, parity ok"
    )


def test_per_day_columnar(benchmark, world, scale):
    columns = world.device_event_columns
    evaluator = DeviceUpdateCostEvaluator(world.routeviews, world.oracle)
    evaluator.evaluate(columns)  # warm caches

    vector = run_once(benchmark, per_day_update_rates, evaluator, columns)
    assert vector == per_day_rates(world.routeviews, world.oracle, columns)
    print(
        f"per-day update rates [{scale.label}]: "
        f"{len(vector)} routers x {len(columns.days())} days, parity ok"
    )


def test_content_columnar(benchmark, world, scale):
    meas = world.popular_measurement
    strategy = ForwardingStrategy.CONTROLLED_FLOODING
    # Warm the oracle's route tables; a fresh evaluator then times one
    # whole pass (its result is memoized per evaluator).
    ContentUpdateCostEvaluator(world.routeviews, world.oracle).evaluate(
        meas, strategy
    )
    evaluator = ContentUpdateCostEvaluator(world.routeviews, world.oracle)

    start = time.perf_counter()
    vector = run_once(benchmark, evaluator.evaluate, meas, strategy)
    vector_s = time.perf_counter() - start
    reference = content_report(world.routeviews, world.oracle, meas, strategy)

    assert vector.rates == reference.rates
    assert vector.updates == reference.updates
    assert vector.num_events == reference.num_events

    obs.gauge("bench.columnar.content.vector_s", vector_s)
    print(
        f"content update rates [{scale.label}]: "
        f"{vector.num_events} events, vector {vector_s:.3f}s, parity ok"
    )
