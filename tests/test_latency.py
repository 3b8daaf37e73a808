"""Tests for the iPlane-style latency predictor."""

import pytest

from repro.latency import IPlanePredictor
from repro.net import parse_address, parse_prefix
from repro.routing import RoutingOracle
from repro.topology import (
    ASNode,
    ASTopology,
    Tier,
    generate_as_topology,
)


def small_internet():
    topo = ASTopology()
    topo.add_as(ASNode(1, Tier.T1, "us-west"))
    topo.add_as(ASNode(3, Tier.T2, "us-west"))
    topo.add_as(ASNode(4, Tier.T2, "asia-east"))
    topo.add_as(ASNode(6, Tier.STUB, "us-west"))
    topo.add_as(ASNode(7, Tier.STUB, "asia-east"))
    topo.add_customer_provider(3, 1)
    topo.add_customer_provider(4, 1)
    topo.add_customer_provider(6, 3)
    topo.add_customer_provider(7, 4)
    topo.assign_prefix(6, parse_prefix("10.6.0.0/16"))
    topo.assign_prefix(7, parse_prefix("10.7.0.0/16"))
    return topo


class TestPredictor:
    def test_full_coverage_predicts_policy_path(self):
        oracle = RoutingOracle(small_internet())
        pred = IPlanePredictor(oracle, coverage_fraction=1.0)
        p = pred.predict_as(6, 7)
        assert p is not None
        assert p.as_path == (6, 3, 1, 4, 7)
        assert p.as_hops == 4

    def test_latency_includes_path_plus_access(self):
        oracle = RoutingOracle(small_internet())
        pred = IPlanePredictor(
            oracle, coverage_fraction=1.0, queuing_jitter_ms=0.0, access_ms=10.0
        )
        p = pred.predict_as(6, 7)
        base = oracle.topology.path_latency_ms((6, 3, 1, 4, 7))
        assert p.latency_ms == pytest.approx(base + 10.0)

    def test_cross_ocean_slower_than_regional(self):
        oracle = RoutingOracle(small_internet())
        pred = IPlanePredictor(oracle, coverage_fraction=1.0)
        regional = pred.predict_as(6, 3)
        transpacific = pred.predict_as(6, 7)
        assert transpacific.latency_ms > regional.latency_ms

    def test_same_as_prediction(self):
        oracle = RoutingOracle(small_internet())
        pred = IPlanePredictor(oracle, coverage_fraction=1.0)
        p = pred.predict_as(6, 6)
        assert p.as_hops == 0
        assert p.latency_ms < 10.0

    def test_predict_by_address(self):
        oracle = RoutingOracle(small_internet())
        pred = IPlanePredictor(oracle, coverage_fraction=1.0)
        p = pred.predict(parse_address("10.6.0.1"), parse_address("10.7.0.1"))
        assert p is not None
        assert p.as_path[0] == 6

    def test_unknown_address_unanswered(self):
        oracle = RoutingOracle(small_internet())
        pred = IPlanePredictor(oracle, coverage_fraction=1.0)
        assert pred.predict(
            parse_address("99.0.0.1"), parse_address("10.7.0.1")
        ) is None

    def test_deterministic(self):
        oracle = RoutingOracle(small_internet())
        a = IPlanePredictor(oracle, coverage_fraction=1.0, seed=5)
        b = IPlanePredictor(oracle, coverage_fraction=1.0, seed=5)
        assert a.predict_as(6, 7) == b.predict_as(6, 7)

    def test_bad_coverage_rejected(self):
        oracle = RoutingOracle(small_internet())
        with pytest.raises(ValueError):
            IPlanePredictor(oracle, coverage_fraction=0.0)
        with pytest.raises(ValueError):
            IPlanePredictor(oracle, coverage_fraction=1.5)

    def test_physical_lower_bound_ignores_policy(self):
        # Physical shortest path may use valley-violating links.
        topo = small_internet()
        topo.add_peering(6, 7)  # direct stub-stub peering
        oracle = RoutingOracle(topo)
        pred = IPlanePredictor(oracle, coverage_fraction=1.0)
        assert pred.shortest_physical_as_hops(6, 7) == 1


class TestCoverageCensoring:
    def test_coverage_near_requested(self):
        oracle = RoutingOracle(generate_as_topology())
        pred = IPlanePredictor(oracle, coverage_fraction=0.05)
        # A pair is answered only when both of its ASes are measured.
        ases = sorted(oracle.topology.ases)
        measured = sum(pred.is_measured(asn) for asn in ases)
        pairs = len(ases) * (len(ases) - 1)
        assert 0.01 <= measured * (measured - 1) / pairs <= 0.12

    def test_uncovered_pairs_unanswered(self):
        oracle = RoutingOracle(generate_as_topology())
        pred = IPlanePredictor(oracle, coverage_fraction=0.05)
        ases = sorted(oracle.topology.ases)
        answered = total = 0
        for src in ases[::11]:
            for dst in ases[::13]:
                if src == dst:
                    continue
                total += 1
                if pred.predict_as(src, dst) is not None:
                    answered += 1
        assert answered / total < 0.2

    def test_predicted_never_shorter_than_physical(self):
        oracle = RoutingOracle(generate_as_topology())
        pred = IPlanePredictor(oracle, coverage_fraction=1.0)
        ases = sorted(oracle.topology.ases)
        for src in ases[::41]:
            for dst in ases[::53]:
                if src == dst:
                    continue
                p = pred.predict_as(src, dst)
                lower = pred.shortest_physical_as_hops(src, dst)
                if p is not None and lower is not None:
                    assert p.as_hops >= lower
