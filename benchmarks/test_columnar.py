"""Bench: the columnar data plane, checked against the per-event reference.

Times the vectorized device, per-day and content update-rate
evaluations under the benchmark timer, then recomputes the identical
workload with the per-event loops in ``tests/reference`` and asserts
identical reports — the parity contract. Route caches are warmed before
the measurement so it times the evaluation itself, not BGP route
computation. The device experiments built on the batch displacement
test (policy-sensitivity, fib-size, ablation-multihoming) are timed
whole and held to their per-event loops the same way. Times are
recorded through the existing obs metrics plumbing
(``bench.columnar.*``).
"""

import time

import pytest
from conftest import run_once

from repro import obs
from repro.core import (
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    per_day_update_rates,
)
from repro.experiments import (
    exp_ablation_multihoming,
    exp_fib_size,
    exp_policy_sensitivity,
)

from tests.reference import experiments as reference_experiments
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


#: The device experiments built on the batch displacement test, each
#: with the per-event loop it replaced.
DEVICE_EXPERIMENTS = {
    "policy-sensitivity": (
        exp_policy_sensitivity, reference_experiments.policy_sensitivity
    ),
    "fib-size": (exp_fib_size, reference_experiments.fib_size),
    "ablation-multihoming": (
        exp_ablation_multihoming, reference_experiments.ablation_multihoming
    ),
}


@pytest.mark.parametrize("name", list(DEVICE_EXPERIMENTS))
def test_device_experiment_columnar(benchmark, world, scale, name):
    module, reference = DEVICE_EXPERIMENTS[name]
    start = time.perf_counter()
    vector = run_once(benchmark, module.run, world)
    vector_s = time.perf_counter() - start
    start = time.perf_counter()
    expected = reference(world)
    reference_s = time.perf_counter() - start

    assert vector == expected
    for series, expected_series in zip(module.series(vector),
                                       module.series(expected)):
        assert series.rows == expected_series.rows  # dict order too

    obs.gauge(f"bench.columnar.{name}.vector_s", vector_s)
    print(
        f"{name} [{scale.label}]: vector {vector_s:.3f}s, per-event "
        f"reference {reference_s:.3f}s, parity ok"
    )
