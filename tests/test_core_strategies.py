"""Tests for the §3.3 forwarding strategies."""

import pytest

from repro.core import ContentPortMapper, ForwardingStrategy, UnionFloodingState
from repro.net import ContentName, parse_address, parse_prefix
from repro.routing import RoutingOracle, VantagePoint
from repro.topology import ASNode, ASTopology, Relationship, Tier

NAME = ContentName.from_domain("example.com")


def content_internet():
    """Two hosting stubs (6, 7) under different T2s, one (8) under the
    same T2 as 6 — so addresses in 6 and 8 share a port at the vantage."""
    topo = ASTopology()
    topo.add_as(ASNode(1, Tier.T1, "us-west"))
    topo.add_as(ASNode(3, Tier.T2, "us-west"))
    topo.add_as(ASNode(4, Tier.T2, "us-east"))
    topo.add_as(ASNode(6, Tier.STUB, "us-west"))
    topo.add_as(ASNode(7, Tier.STUB, "us-east"))
    topo.add_as(ASNode(8, Tier.STUB, "us-west"))
    topo.add_customer_provider(3, 1)
    topo.add_customer_provider(4, 1)
    topo.add_customer_provider(6, 3)
    topo.add_customer_provider(7, 4)
    topo.add_customer_provider(8, 3)
    topo.assign_prefix(6, parse_prefix("10.6.0.0/16"))
    topo.assign_prefix(7, parse_prefix("10.7.0.0/16"))
    topo.assign_prefix(8, parse_prefix("10.8.0.0/16"))
    return topo


@pytest.fixture()
def mapper():
    topo = content_internet()
    oracle = RoutingOracle(topo)
    vantage = VantagePoint(
        name="vp",
        host_region="us-west",
        neighbors={3: Relationship.PEER, 4: Relationship.PEER},
    )
    return ContentPortMapper(vantage, oracle)


A6 = frozenset({parse_address("10.6.0.1")})
A7 = frozenset({parse_address("10.7.0.1")})
A8 = frozenset({parse_address("10.8.0.1")})
A67 = A6 | A7
A68 = A6 | A8


class TestPortProjection:
    def test_eligible_ports(self, mapper):
        assert mapper.eligible_ports(A6) == frozenset({3})
        assert mapper.eligible_ports(A7) == frozenset({4})
        assert mapper.eligible_ports(A67) == frozenset({3, 4})
        assert mapper.eligible_ports(A68) == frozenset({3})

    def test_eligible_ports_ignores_unrouted(self, mapper):
        addrs = A6 | {parse_address("99.0.0.1")}
        assert mapper.eligible_ports(addrs) == frozenset({3})

    def test_best_port_single(self, mapper):
        assert mapper.best_port(A6) == 3
        assert mapper.best_port(A7) == 4

    def test_best_port_prefers_shorter_path(self, mapper):
        # Both are length-2 peer routes; tie broken deterministically.
        port = mapper.best_port(A67)
        assert port in (3, 4)
        assert mapper.best_port(A67) == port  # stable

    def test_best_port_empty(self, mapper):
        assert mapper.best_port(frozenset()) is None


class TestUpdateForEvent:
    def test_best_port_update_only_when_best_changes(self, mapper):
        # 6 and 8 share port 3: a swap is invisible to best-port.
        assert not mapper.update_for_event(
            ForwardingStrategy.BEST_PORT, A6, A8
        )
        assert mapper.update_for_event(ForwardingStrategy.BEST_PORT, A6, A7)

    def test_flooding_update_when_set_changes(self, mapper):
        assert mapper.update_for_event(
            ForwardingStrategy.CONTROLLED_FLOODING, A6, A67
        )
        assert not mapper.update_for_event(
            ForwardingStrategy.CONTROLLED_FLOODING, A6, A8
        )

    def test_flooding_dominates_best_port(self, mapper):
        # §3.3.3: flooding update cost >= best-port update cost for any
        # single event (a best-port change implies an eligible-set change
        # ... not strictly, but for single-best events a best change
        # implies a set change here).
        cases = [(A6, A7), (A6, A67), (A67, A7), (A6, A8), (A68, A6)]
        for old, new in cases:
            bp = mapper.update_for_event(ForwardingStrategy.BEST_PORT, old, new)
            fl = mapper.update_for_event(
                ForwardingStrategy.CONTROLLED_FLOODING, old, new
            )
            assert fl or not bp

    def test_union_requires_state(self, mapper):
        with pytest.raises(ValueError):
            mapper.update_for_event(ForwardingStrategy.UNION_FLOODING, A6, A7)


class TestUnionFlooding:
    def test_first_observation_counts(self, mapper):
        state = UnionFloodingState()
        assert state.observe(mapper, NAME, A6)
        assert state.port_set(NAME) == frozenset({3})

    def test_revisits_are_free(self, mapper):
        state = UnionFloodingState()
        state.observe(mapper, NAME, A6)
        state.observe(mapper, NAME, A7)
        # Flit back and forth: no new addresses, no updates.
        assert not state.observe(mapper, NAME, A6)
        assert not state.observe(mapper, NAME, A7)
        assert not state.observe(mapper, NAME, A67)
        assert state.port_set(NAME) == frozenset({3, 4})

    def test_new_address_same_port_is_free(self, mapper):
        state = UnionFloodingState()
        state.observe(mapper, NAME, A6)
        # A8 is a new address but projects onto the same port 3.
        assert not state.observe(mapper, NAME, A8)

    def test_table_size_accumulates(self, mapper):
        state = UnionFloodingState()
        other = ContentName.from_domain("other.com")
        state.observe(mapper, NAME, A67)
        state.observe(mapper, other, A6)
        assert state.table_size() == 3  # {3,4} + {3}

    def test_update_cost_decays_to_zero(self, mapper):
        # The §3.3.3 headline: for content flitting among previously
        # visited locations, update cost approaches zero.
        state = UnionFloodingState()
        sets = [A6, A7, A67, A8]
        updates = 0
        for i in range(40):
            if state.observe(mapper, NAME, sets[i % len(sets)]):
                updates += 1
        assert updates <= 2  # only the first sweep costs anything
