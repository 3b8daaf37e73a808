"""End-to-end integration tests: cross-module consistency at tiny scale.

These pin the glue between packages: the experiment harness must
compute exactly what the underlying evaluators compute, and the CLI
must agree with the library.
"""

import pytest

from repro import obs
from repro.core import (
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
)
from repro.experiments import (
    SMALL_SCALE,
    World,
    exp_ablation_tradeoff,
    exp_ablation_union,
    exp_fig8,
    exp_fig11,
)
from repro.measurement import ContentMeasurement
from repro.routing import RoutingOracle


@pytest.fixture(scope="module")
def world():
    return World(SMALL_SCALE)


class TestHarnessMatchesEvaluators:
    def test_fig8_equals_direct_evaluation(self, world):
        via_harness = exp_fig8.run(world).report
        direct = DeviceUpdateCostEvaluator(
            world.routeviews, world.oracle
        ).evaluate(world.workload.all_transitions())
        assert via_harness.rates == direct.rates
        assert via_harness.num_events == direct.num_events

    def test_fig11_equals_direct_evaluation(self, world):
        via_harness = exp_fig11.run(world)
        direct = ContentUpdateCostEvaluator(
            world.routeviews, world.oracle
        ).evaluate(
            world.popular_measurement, ForwardingStrategy.BEST_PORT
        )
        assert via_harness.popular_best_port.rates == direct.rates

    def test_fresh_oracle_reproduces_rates(self, world):
        # A brand-new oracle over the same topology must agree: no
        # hidden state in the cached one.
        fresh = RoutingOracle(world.topology)
        direct = DeviceUpdateCostEvaluator(
            world.routeviews, fresh
        ).evaluate(world.workload.all_transitions())
        assert direct.rates == exp_fig8.run(world).report.rates


class TestOneContentPass:
    def test_content_experiments_share_one_pass_per_measurement(self):
        world = World(SMALL_SCALE)
        with obs.using(obs.Metrics()) as collector:
            exp_fig11.run(world)
            exp_ablation_union.run(world)
            exp_ablation_tradeoff.run(world)
        # One pass for the popular measurement, one for the unpopular.
        assert collector.timers["evaluator.batch.content"]["count"] == 2

        evaluator = world.content_evaluator
        popular = world.popular_measurement
        strategy = ForwardingStrategy.UNION_FLOODING
        report = evaluator.evaluate(popular, strategy)
        rates, updates = dict(report.rates), dict(report.updates)
        report.rates.clear()
        report.updates["Mauritius"] = -1
        evaluator.union_table_sizes(popular).clear()
        again = evaluator.evaluate(popular, strategy)
        assert (again.rates, again.updates) == (rates, updates)
        assert evaluator.union_table_sizes(popular)

        copy = ContentMeasurement(
            dict(popular.timelines), popular.fleet, popular.config
        )
        with obs.using(obs.Metrics()) as collector:
            costs = evaluator.costs(copy)
        assert collector.timers["evaluator.batch.content"]["count"] == 1
        assert costs is not evaluator.costs(popular)
        assert costs == evaluator.costs(popular)


class TestCliAgreesWithLibrary:
    def test_cli_fig8_output_contains_library_numbers(self, world, capsys):
        from repro.cli import main

        report = exp_fig8.run(world).report
        assert main(["run", "fig8", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        # The CLI builds its own World at the same scale/seed, so the
        # exact same max rate must appear in its output.
        assert f"{report.max_rate() * 100:.2f}%" in out
