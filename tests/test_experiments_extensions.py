"""Integration tests for the extension experiments (small scale)."""

import pytest

from repro import obs
from repro.core import ForwardingStrategy
from repro.experiments import (
    SMALL_SCALE,
    World,
    exp_ablation_hybrid,
    exp_ablation_multihoming,
    exp_ablation_outage,
    exp_ablation_strategy_layer,
    exp_ablation_tradeoff,
    exp_ablation_union,
    exp_fib_size,
    exp_intradomain,
    exp_perturbation,
)
from repro.forwarding import InterestStrategy

from .test_engine import _span_names


@pytest.fixture(scope="module")
def world():
    return World(SMALL_SCALE)


class TestFibSize:
    def test_structure_and_bounds(self, world):
        result = exp_fib_size.run(world)
        assert set(result.displaced_fraction) == {
            r.name for r in world.routeviews
        }
        for fraction in result.displaced_fraction.values():
            assert 0.0 <= fraction <= 1.0
        assert result.displaced_fraction["Mauritius"] == 0.0
        text = exp_fib_size.format_result(result)
        assert "forwarding table size" in text


class TestMultihoming:
    def test_rates_and_formatting(self, world):
        result = exp_ablation_multihoming.run(world)
        assert result.total_users == SMALL_SCALE.num_users
        assert 0 < result.dual_radio_users < result.total_users
        assert result.events_multi > 0
        for router in result.single:
            assert 0.0 <= result.multi_best_port[router] <= 1.0
        text = exp_ablation_multihoming.format_result(result)
        assert "multihomed" in text.lower()

    def test_best_port_not_worse_in_aggregate(self, world):
        result = exp_ablation_multihoming.run(world)
        assert sum(result.multi_best_port.values()) <= sum(
            result.single.values()
        ) * 1.1


class TestStrategyLayer:
    def test_sweep_structure(self):
        result = exp_ablation_strategy_layer.run(n=20, trials=100)
        assert len(result.outcomes) == len(result.radii) * len(
            InterestStrategy
        )
        converged = result.radii[-1]
        assert result.success(InterestStrategy.ADAPTIVE, converged) > 0.9
        text = exp_ablation_strategy_layer.format_result(result)
        assert "strategy layer" in text


class TestOutage:
    def test_structure(self, world):
        result = exp_ablation_outage.run(world, n=15, events=20)
        assert set(result.name_based) == {"chain", "clique", "binary-tree"}
        assert result.ttl_points
        assert result.ttl_points[0].ttl_s == 0.0
        text = exp_ablation_outage.format_result(result)
        assert "outage" in text


class TestTradeoffAndUnion:
    def test_tradeoff_structure(self, world):
        result = exp_ablation_tradeoff.run(world)
        assert result.num_names > 0
        assert len(result.costs) == 3 * len(world.routeviews)
        bp = result.for_strategy(ForwardingStrategy.BEST_PORT)
        assert all(c.avg_copies_per_packet == 1.0 for c in bp)
        assert "cost triangle" in exp_ablation_tradeoff.format_result(result)

    def test_union_structure(self, world):
        result = exp_ablation_union.run(world)
        assert result.names_measured == len(
            world.popular_measurement.names()
        )
        assert "union" in exp_ablation_union.format_result(result)


class TestHybridSweep:
    def test_sweep(self):
        result = exp_ablation_hybrid.run(n=20, steps=400)
        assert set(result.evaluations) == {0.2, 0.5, 0.8, 0.95}
        assert "hybrid" in exp_ablation_hybrid.format_result(result)


class TestIntradomainSweep:
    def test_zero_delegation_is_free(self):
        result = exp_intradomain.run(num_routers=12, events=100,
                                     delegation_levels=(0, 4))
        by_level = {p.specifics_per_router: p for p in result.points}
        assert by_level[0].mean_displaced_fraction == 0.0
        assert by_level[4].mean_displaced_fraction >= 0.0
        assert "Intradomain" in exp_intradomain.format_result(result)


class TestCaching:
    def test_sweep_structure(self):
        from repro.experiments import exp_ablation_caching

        result = exp_ablation_caching.run(n=20, trials=100)
        assert len(result.success) == len(result.cache_fractions) * 3
        for rate in result.success.values():
            assert 0.0 <= rate <= 1.0
        assert "caching" in exp_ablation_caching.format_result(result)


class TestPolicySensitivity:
    def test_structure(self, world):
        from repro.experiments import exp_policy_sensitivity

        result = exp_policy_sensitivity.run(world)
        assert set(result.rates) == {"bgp", "shortest-only", "sticky-random"}
        for rates in result.rates.values():
            assert set(rates) == {r.name for r in world.routeviews}
        assert "policies" in exp_policy_sensitivity.format_result(result)


class TestCompactRouting:
    def test_structure(self):
        from repro.experiments import exp_compact_routing

        result = exp_compact_routing.run(n=25, sample_probs=(0.2, 1.0))
        assert len(result.points) == 2
        assert result.points[-1].mean_multiplicative_stretch == 1.0
        assert "compact routing" in exp_compact_routing.format_result(result)


class TestPerturbation:
    def test_requires_baseline(self, world):
        with pytest.raises(ValueError):
            exp_perturbation.run(world, scales=(0.5, 2.0))

    def test_profile_stable(self, world):
        result = exp_perturbation.run(world, scales=(1.0, 2.0))
        assert result.profile_correlation[1.0] == 1.0
        assert result.profile_correlation[2.0] > 0.9
        assert "robustness" in exp_perturbation.format_result(result)

    def test_scale_one_reads_the_world_events(self, world):
        # The x1.0 workload is the World's own, so only the three
        # other scales generate one.
        events = world.device_event_columns
        metrics = obs.Metrics()
        with obs.using(metrics):
            result = exp_perturbation.run(world)
        generated = [name for name in _span_names(metrics.snapshot()["spans"])
                     if name == "mobility.generate"]
        assert len(generated) == 3
        assert result.events[1.0] == len(events)
        assert metrics.counters["mobility.generate.events"] == sum(
            result.events[scale] for scale in (0.5, 2.0, 4.0))
