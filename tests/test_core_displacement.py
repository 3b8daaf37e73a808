"""Tests for the §3.1/§3.2 displacement methodology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InterdomainPortMap, interdomain_displaced, intradomain_displaced
from repro.core.displacement import prefix_ids
from repro.mobility import MobilityEvent, NetworkLocation
from repro.net import IPv4Prefix, parse_address, parse_prefix
from repro.routing import RoutingOracle, VantagePoint
from repro.topology import (
    ASNode,
    ASTopology,
    Graph,
    IntradomainNetwork,
    Relationship,
    Tier,
    generate_as_topology,
)

from .reference.addressing import prefix_ids as reference_prefix_ids


def paper_network():
    g = Graph()
    g.add_edge(1, 2)
    g.add_edge(2, 4)
    g.add_edge(1, 3)
    g.add_edge(3, 5)
    ownership = {
        4: [parse_prefix("22.33.44.0/24")],
        5: [parse_prefix("22.33.0.0/16")],
    }
    return IntradomainNetwork(g, ownership)


class TestIntradomainDisplacement:
    def test_paper_example_displaces_r(self):
        # §3.1: A moves 22.33.44.55 -> 22.33.88.55; R (router 1) has
        # different ports for the /24 and /16 -> update required.
        net = paper_network()
        assert intradomain_displaced(
            net, 1, parse_address("22.33.44.55"), parse_address("22.33.88.55")
        )

    def test_same_port_no_displacement(self):
        # Router 2 reaches both owners via router 1... no: 2 reaches 4
        # directly and 5 via 1. Build the check from actual ports.
        net = paper_network()
        # Router 4: port to /24 is local (4), port to /16 is via 2.
        assert intradomain_displaced(
            net, 4, parse_address("22.33.44.55"), parse_address("22.33.88.55")
        )
        # Moving within the same /24 never displaces anyone.
        for router in [1, 2, 3, 4, 5]:
            assert not intradomain_displaced(
                net,
                router,
                parse_address("22.33.44.55"),
                parse_address("22.33.44.99"),
            )

    def test_unroutable_address_is_never_displacement(self):
        net = paper_network()
        assert not intradomain_displaced(
            net, 1, parse_address("99.0.0.1"), parse_address("22.33.44.55")
        )


def small_internet():
    topo = ASTopology()
    topo.add_as(ASNode(1, Tier.T1, "us-west"))
    topo.add_as(ASNode(2, Tier.T1, "eu-west"))
    topo.add_as(ASNode(3, Tier.T2, "us-west"))
    topo.add_as(ASNode(4, Tier.T2, "us-east"))
    topo.add_as(ASNode(6, Tier.STUB, "us-west"))
    topo.add_as(ASNode(7, Tier.STUB, "us-east"))
    topo.add_peering(1, 2)
    topo.add_customer_provider(3, 1)
    topo.add_customer_provider(4, 1)
    topo.add_customer_provider(6, 3)
    topo.add_customer_provider(7, 4)
    topo.assign_prefix(6, parse_prefix("10.6.0.0/16"))
    topo.assign_prefix(7, parse_prefix("10.7.0.0/16"))
    return topo


def event(old_ip, old_prefix, old_asn, new_ip, new_prefix, new_asn):
    return MobilityEvent(
        user_id="u",
        day=0,
        hour=1.0,
        old=NetworkLocation(parse_address(old_ip), parse_prefix(old_prefix), old_asn),
        new=NetworkLocation(parse_address(new_ip), parse_prefix(new_prefix), new_asn),
    )


class TestInterdomainDisplacement:
    @pytest.fixture()
    def port_map(self):
        topo = small_internet()
        oracle = RoutingOracle(topo)
        vantage = VantagePoint(
            name="vp",
            host_region="us-west",
            neighbors={3: Relationship.PEER, 4: Relationship.PEER},
        )
        return InterdomainPortMap(vantage, oracle)

    def test_cross_t2_move_displaces(self, port_map):
        ev = event("10.6.0.1", "10.6.0.0/16", 6, "10.7.0.1", "10.7.0.0/16", 7)
        assert interdomain_displaced(port_map, ev)

    def test_same_prefix_move_does_not(self, port_map):
        ev = event("10.6.0.1", "10.6.0.0/16", 6, "10.6.0.99", "10.6.0.0/16", 6)
        assert not interdomain_displaced(port_map, ev)

    def test_unrouted_address_does_not(self, port_map):
        ev = event("99.0.0.1", "99.0.0.0/16", 6, "10.6.0.1", "10.6.0.0/16", 6)
        assert not interdomain_displaced(port_map, ev)

    def test_cache_grows_and_hits(self, port_map):
        assert port_map.cache_size() == 0
        port_map.port_for_address(parse_address("10.6.0.1"))
        assert port_map.cache_size() == 1
        port_map.port_for_address(parse_address("10.6.0.2"))
        assert port_map.cache_size() == 1  # same prefix: cache hit

    def test_ports_match_vantage_fib(self, port_map):
        assert port_map.port_for_prefix(parse_prefix("10.6.0.0/16")) == 3
        assert port_map.port_for_prefix(parse_prefix("10.7.0.0/16")) == 4


@pytest.fixture(scope="module")
def nested_internet():
    """The default Internet plus a more specific /24 (x.y.7.0/24) inside
    every tenth /16, owned by another AS."""
    topo = generate_as_topology()
    asns = sorted(topo.ases)
    blocks = [prefix for prefix, _origin in topo.all_prefixes()]
    for asn, block in zip(asns, blocks[::10]):
        topo.assign_prefix(asn, IPv4Prefix(block.network | (7 << 8), 24))
    return topo


class TestPrefixIds:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_the_trie_loop(self, nested_internet, data):
        networks = sorted({p.network
                           for p, _ in nested_internet.all_prefixes()})
        offsets = st.integers(0, 0xFFFF) | st.integers(7 << 8, (8 << 8) - 1)
        inside = st.builds(lambda net, off: net | off,
                           st.sampled_from(networks), offsets)
        addresses = data.draw(st.lists(
            inside | st.integers(0, 0xFFFFFFFF), max_size=80))
        prefixes, ids = prefix_ids(nested_internet, addresses)
        want_prefixes, want_ids = reference_prefix_ids(
            nested_internet, addresses)
        assert prefixes == want_prefixes
        assert ids.tolist() == want_ids.tolist()
