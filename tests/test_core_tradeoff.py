"""Tests for the §3.3.3 cost-triangle evaluation."""

import pytest

from repro.core import ContentUpdateCostEvaluator, ForwardingStrategy
from repro.core.tradeoff import evaluate_tradeoff
from repro.measurement.vantage import (
    ContentMeasurement,
    MeasurementConfig,
    VantageFleet,
    VantageNode,
)
from repro.net import ContentName, parse_address, parse_prefix
from repro.routing import RoutingOracle, VantagePoint
from repro.topology import ASNode, ASTopology, Relationship, Tier
from tests.reference.content import address_timeline


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


def timeline(name_text, sets, hours=48):
    name = ContentName.from_domain(name_text)
    changes = [
        (h, frozenset(parse_address(a) for a in addrs)) for h, addrs in sets
    ]
    return address_timeline(name, total_hours=hours, changes=changes)


def measurement(timelines):
    fleet = VantageFleet([VantageNode("pl0", "us-west", 6)])
    return ContentMeasurement(
        {tl.name: tl for tl in timelines}, fleet, MeasurementConfig(days=2)
    )


@pytest.fixture()
def evaluator():
    topo = content_internet()
    oracle = RoutingOracle(topo)
    router = VantagePoint(
        name="vp",
        host_region="us-west",
        neighbors={3: Relationship.PEER, 4: Relationship.PEER},
    )
    return ContentUpdateCostEvaluator([router], oracle)


class TestTradeoff:
    def test_best_port_always_one_copy(self, evaluator):
        meas = measurement(
            [timeline("a.com", [(0, ["10.6.0.1", "10.7.0.1"])])]
        )
        result = evaluate_tradeoff(evaluator, meas)
        bp = result.at(ForwardingStrategy.BEST_PORT, "vp")
        assert bp.avg_copies_per_packet == 1.0
        assert bp.table_entries == 1

    def test_flooding_copies_track_port_set(self, evaluator):
        # Two ports for the whole period -> 2 copies per packet.
        meas = measurement(
            [timeline("a.com", [(0, ["10.6.0.1", "10.7.0.1"])])]
        )
        result = evaluate_tradeoff(evaluator, meas)
        fl = result.at(ForwardingStrategy.CONTROLLED_FLOODING, "vp")
        assert fl.avg_copies_per_packet == pytest.approx(2.0)

    def test_flooding_copies_time_weighted(self, evaluator):
        # One port for the first 24h, two for the second 24h -> 1.5.
        meas = measurement(
            [timeline("a.com", [(0, ["10.6.0.1"]),
                                (24, ["10.6.0.1", "10.7.0.1"])])]
        )
        result = evaluate_tradeoff(evaluator, meas)
        fl = result.at(ForwardingStrategy.CONTROLLED_FLOODING, "vp")
        assert fl.avg_copies_per_packet == pytest.approx(1.5)

    def test_union_accumulates(self, evaluator):
        # Visits port 3 then port 4: union holds both forever after.
        meas = measurement(
            [timeline("a.com", [(0, ["10.6.0.1"]), (24, ["10.7.0.1"])])]
        )
        result = evaluate_tradeoff(evaluator, meas)
        fl = result.at(ForwardingStrategy.CONTROLLED_FLOODING, "vp")
        un = result.at(ForwardingStrategy.UNION_FLOODING, "vp")
        assert fl.avg_copies_per_packet == pytest.approx(1.0)
        assert un.avg_copies_per_packet == pytest.approx(1.5)
        assert un.table_entries == 2
        assert fl.table_entries == 1  # instantaneous set at the end

    def test_union_updates_not_more_than_flooding(self, evaluator):
        sets = [(0, ["10.6.0.1"])]
        for i in range(1, 12):
            sets.append((i * 2, ["10.7.0.1"] if i % 2 else ["10.6.0.1"]))
        meas = measurement([timeline("a.com", sets)])
        result = evaluate_tradeoff(evaluator, meas)
        fl = result.at(ForwardingStrategy.CONTROLLED_FLOODING, "vp")
        un = result.at(ForwardingStrategy.UNION_FLOODING, "vp")
        assert un.update_rate <= fl.update_rate
        assert un.update_rate < 0.2

    def test_all_strategy_router_pairs_present(self, evaluator):
        meas = measurement([timeline("a.com", [(0, ["10.6.0.1"])])])
        result = evaluate_tradeoff(evaluator, meas)
        assert len(result.costs) == 3
        with pytest.raises(KeyError):
            result.at(ForwardingStrategy.BEST_PORT, "nope")
