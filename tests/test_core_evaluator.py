"""Tests for the update-cost evaluation harness."""

import pytest

from repro.core import (
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    UpdateRateReport,
    pearson_correlation,
    per_day_update_rates,
)
from repro.measurement.vantage import ContentMeasurement, MeasurementConfig, VantageFleet, VantageNode
from repro.mobility import MobilityEvent, NetworkLocation
from repro.net import ContentName, parse_address, parse_prefix
from repro.routing import RoutingOracle, VantagePoint
from repro.topology import ASNode, ASTopology, Relationship, Tier
from tests.reference.content import address_timeline, events


def content_internet():
    topo = ASTopology()
    topo.add_as(ASNode(1, Tier.T1, "us-west"))
    topo.add_as(ASNode(3, Tier.T2, "us-west"))
    topo.add_as(ASNode(4, Tier.T2, "us-east"))
    topo.add_as(ASNode(6, Tier.STUB, "us-west"))
    topo.add_as(ASNode(7, Tier.STUB, "us-east"))
    topo.add_customer_provider(3, 1)
    topo.add_customer_provider(4, 1)
    topo.add_customer_provider(6, 3)
    topo.add_customer_provider(7, 4)
    topo.assign_prefix(6, parse_prefix("10.6.0.0/16"))
    topo.assign_prefix(7, parse_prefix("10.7.0.0/16"))
    return topo


def vantage(name="vp"):
    return VantagePoint(
        name=name,
        host_region="us-west",
        neighbors={3: Relationship.PEER, 4: Relationship.PEER},
    )


def loc(ip, prefix, asn):
    return NetworkLocation(parse_address(ip), parse_prefix(prefix), asn)


L6 = loc("10.6.0.1", "10.6.0.0/16", 6)
L6B = loc("10.6.0.2", "10.6.0.0/16", 6)
L7 = loc("10.7.0.1", "10.7.0.0/16", 7)


def ev(old, new, day=0):
    return MobilityEvent(user_id="u", day=day, hour=1.0, old=old, new=new)


class TestDeviceEvaluator:
    def test_rates_counted(self):
        oracle = RoutingOracle(content_internet())
        evaluator = DeviceUpdateCostEvaluator([vantage()], oracle)
        report = evaluator.evaluate([ev(L6, L7), ev(L6, L6B), ev(L7, L6)])
        assert report.num_events == 3
        assert report.updates["vp"] == 2
        assert report.rates["vp"] == pytest.approx(2 / 3)

    def test_empty_events(self):
        oracle = RoutingOracle(content_internet())
        evaluator = DeviceUpdateCostEvaluator([vantage()], oracle)
        report = evaluator.evaluate([])
        assert report.num_events == 0
        assert report.rates["vp"] == 0.0

    def test_needs_routers(self):
        oracle = RoutingOracle(content_internet())
        with pytest.raises(ValueError):
            DeviceUpdateCostEvaluator([], oracle)

    def test_report_statistics(self):
        report = UpdateRateReport(
            rates={"a": 0.1, "b": 0.3, "c": 0.2}, num_events=10,
            updates={"a": 1, "b": 3, "c": 2},
        )
        assert report.max_rate() == 0.3
        assert report.median_rate() == 0.2
        assert report.rate_of("b") == 0.3

    def test_median_even_count(self):
        report = UpdateRateReport(
            rates={"a": 0.1, "b": 0.3}, num_events=1, updates={}
        )
        assert report.median_rate() == pytest.approx(0.2)

    def test_per_day_rates(self):
        oracle = RoutingOracle(content_internet())
        evaluator = DeviceUpdateCostEvaluator([vantage()], oracle)
        events = [ev(L6, L7, day=0), ev(L6, L6B, day=0), ev(L6, L7, day=1)]
        series = per_day_update_rates(evaluator, events)
        assert series["vp"] == [pytest.approx(0.5), pytest.approx(1.0)]


def timeline(name_text, sets):
    name = ContentName.from_domain(name_text)
    changes = [(h, frozenset(parse_address(a) for a in addrs))
               for h, addrs in sets]
    return address_timeline(name, total_hours=48, changes=changes)


def measurement(timelines):
    fleet = VantageFleet([VantageNode("pl0", "us-west", 6)])
    tls = {tl.name: tl for tl in timelines}
    return ContentMeasurement(tls, fleet, MeasurementConfig(days=2))


class TestContentEvaluator:
    def test_flooding_counts_port_set_changes(self):
        oracle = RoutingOracle(content_internet())
        evaluator = ContentUpdateCostEvaluator([vantage()], oracle)
        tl = timeline(
            "a.com",
            [(0, ["10.6.0.1"]), (5, ["10.6.0.1", "10.7.0.1"]),
             (9, ["10.6.0.9", "10.7.0.1"]), (20, ["10.7.0.1"])],
        )
        report = evaluator.evaluate(measurement([tl]), ForwardingStrategy.CONTROLLED_FLOODING)
        # Events: +port4 (update), swap within AS6 (no), -port3 (update).
        assert report.num_events == 3
        assert report.updates["vp"] == 2

    def test_best_port_counts_best_changes(self):
        oracle = RoutingOracle(content_internet())
        evaluator = ContentUpdateCostEvaluator([vantage()], oracle)
        tl = timeline(
            "a.com",
            [(0, ["10.6.0.1"]), (5, ["10.6.0.1", "10.7.0.1"]),
             (20, ["10.7.0.1"])],
        )
        report = evaluator.evaluate(measurement([tl]), ForwardingStrategy.BEST_PORT)
        # Best stays the AS6 route until it disappears at hour 20.
        assert report.updates["vp"] == 1

    def test_flooding_at_least_best_port(self):
        # The §3.3.1 dominance, end to end on a synthetic measurement.
        oracle = RoutingOracle(content_internet())
        evaluator = ContentUpdateCostEvaluator([vantage()], oracle)
        tls = [
            timeline("a.com", [(0, ["10.6.0.1"]), (3, ["10.7.0.1"]),
                               (8, ["10.6.0.1", "10.7.0.1"])]),
            timeline("b.com", [(0, ["10.6.0.1", "10.6.0.3"]),
                               (4, ["10.6.0.2"]), (9, ["10.7.0.5"])]),
        ]
        meas = measurement(tls)
        flood = evaluator.evaluate(meas, ForwardingStrategy.CONTROLLED_FLOODING)
        best = evaluator.evaluate(meas, ForwardingStrategy.BEST_PORT)
        assert flood.updates["vp"] >= best.updates["vp"]

    def test_incremental_matches_naive(self):
        """The incremental replay must equal recomputing §3.3.1 from
        scratch on every event."""
        from repro.core import ContentPortMapper

        oracle = RoutingOracle(content_internet())
        mapper = ContentPortMapper(vantage(), oracle)
        tl = timeline(
            "a.com",
            [(0, ["10.6.0.1", "10.7.0.1"]), (2, ["10.6.0.1"]),
             (5, ["10.6.0.5"]), (7, ["10.7.0.2", "10.6.0.5"]),
             (11, ["10.7.0.2"]), (13, ["10.6.0.1", "10.7.0.1"])],
        )
        for strategy in (ForwardingStrategy.BEST_PORT,
                         ForwardingStrategy.CONTROLLED_FLOODING):
            naive = sum(
                1
                for e in events(tl)
                if mapper.update_for_event(strategy, e.old_addrs, e.new_addrs)
            )
            evaluator = ContentUpdateCostEvaluator([vantage()], oracle)
            report = evaluator.evaluate(measurement([tl]), strategy)
            assert report.updates["vp"] == naive, strategy

    def test_union_flooding_cheaper_on_revisits(self):
        oracle = RoutingOracle(content_internet())
        evaluator = ContentUpdateCostEvaluator([vantage()], oracle)
        # Flit between two sets repeatedly.
        sets = [(0, ["10.6.0.1"])]
        for i in range(1, 20):
            sets.append((i, ["10.7.0.1"] if i % 2 else ["10.6.0.1"]))
        meas = measurement([timeline("a.com", sets)])
        flood = evaluator.evaluate(meas, ForwardingStrategy.CONTROLLED_FLOODING)
        union = evaluator.evaluate(meas, ForwardingStrategy.UNION_FLOODING)
        assert union.updates["vp"] <= 2
        assert flood.updates["vp"] >= 15

    def test_union_table_sizes(self):
        oracle = RoutingOracle(content_internet())
        evaluator = ContentUpdateCostEvaluator([vantage()], oracle)
        meas = measurement(
            [timeline("a.com", [(0, ["10.6.0.1"]), (3, ["10.7.0.1"])])]
        )
        sizes = evaluator.union_table_sizes(meas)
        assert sizes["vp"] == 2  # ports 3 and 4 accumulated


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_anticorrelation(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson_correlation([1], [1])
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1])
        with pytest.raises(ValueError):
            pearson_correlation([1, 1], [1, 2])
