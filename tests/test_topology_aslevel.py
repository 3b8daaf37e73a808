"""Tests for the synthetic AS-level Internet topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPv4Address, IPv4Prefix, parse_address
from repro.topology import (
    REGIONS,
    ASNode,
    ASTopology,
    ASTopologyConfig,
    Relationship,
    Tier,
    generate_as_topology,
)

from .reference.addressing import origin_trie


@pytest.fixture(scope="module")
def topo():
    return generate_as_topology()


#: Address values around a few shared networks, so that prefixes drawn
#: from them nest (every length of one value is a chain) and addresses
#: drawn from them land inside, next to and outside allocations.
_values = st.one_of(
    st.sampled_from([0, 0x0A000000, 0x0A010000, 0x0A0100FF, 0x0A018000,
                     0xC0A80001, 0xFFFFFFFF]),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
_prefixes = st.builds(IPv4Prefix, _values, st.integers(min_value=0,
                                                       max_value=32))


class TestManualConstruction:
    def make_small(self):
        topo = ASTopology()
        topo.add_as(ASNode(asn=1, tier=Tier.T1, region="us-west"))
        topo.add_as(ASNode(asn=2, tier=Tier.T2, region="us-west"))
        topo.add_as(ASNode(asn=3, tier=Tier.STUB, region="us-east"))
        topo.add_customer_provider(customer=2, provider=1)
        topo.add_customer_provider(customer=3, provider=2)
        return topo

    def test_relationships(self):
        topo = self.make_small()
        assert topo.relationship(1, 2) is Relationship.CUSTOMER
        assert topo.relationship(2, 1) is Relationship.PROVIDER
        assert topo.relationship(2, 3) is Relationship.CUSTOMER
        with pytest.raises(KeyError):
            topo.relationship(1, 3)

    def test_peering(self):
        topo = self.make_small()
        topo.add_peering(1, 3)
        assert topo.relationship(1, 3) is Relationship.PEER
        assert topo.relationship(3, 1) is Relationship.PEER

    def test_duplicate_asn_rejected(self):
        topo = self.make_small()
        with pytest.raises(ValueError):
            topo.add_as(ASNode(asn=1, tier=Tier.STUB, region="us-west"))

    def test_unknown_region_rejected(self):
        topo = ASTopology()
        with pytest.raises(ValueError):
            topo.add_as(ASNode(asn=9, tier=Tier.STUB, region="atlantis"))

    def test_self_relationship_rejected(self):
        topo = self.make_small()
        with pytest.raises(ValueError):
            topo.add_customer_provider(1, 1)
        with pytest.raises(ValueError):
            topo.add_peering(2, 2)

    def test_prefix_assignment_and_origin(self):
        topo = self.make_small()
        p = IPv4Prefix.from_string("10.1.0.0/16")
        topo.assign_prefix(3, p)
        assert topo.origin_of_prefix(p) == 3
        assert topo.origin_of_address(parse_address("10.1.2.3")) == 3
        assert topo.origin_of_address(parse_address("10.2.2.3")) is None
        assert topo.covering_prefix(parse_address("10.1.2.3")) == p

    def test_conflicting_prefix_rejected(self):
        topo = self.make_small()
        p = IPv4Prefix.from_string("10.1.0.0/16")
        topo.assign_prefix(3, p)
        with pytest.raises(ValueError):
            topo.assign_prefix(2, p)

    def test_more_specific_origin_wins(self):
        topo = self.make_small()
        topo.assign_prefix(2, IPv4Prefix.from_string("10.0.0.0/8"))
        topo.assign_prefix(3, IPv4Prefix.from_string("10.1.0.0/16"))
        assert topo.origin_of_address(parse_address("10.1.0.1")) == 3
        assert topo.origin_of_address(parse_address("10.2.0.1")) == 2


class TestAddressIndex:
    """The per-length hash index against a trie of the same allocations."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(_prefixes, st.integers(min_value=1, max_value=3)),
                 max_size=25),
        st.lists(_prefixes, max_size=10),
        st.lists(_values, max_size=25),
    )
    def test_index_answers_as_a_trie_does(self, assignments, probes, values):
        topo = ASTopology()
        for asn in (1, 2, 3):
            topo.add_as(ASNode(asn=asn, tier=Tier.STUB, region="us-west"))
        owners = {}
        for prefix, asn in assignments:
            if owners.get(prefix, asn) != asn:
                with pytest.raises(ValueError):
                    topo.assign_prefix(asn, prefix)
                continue
            topo.assign_prefix(asn, prefix)
            owners[prefix] = asn
        trie = origin_trie(topo)
        assert list(topo.all_prefixes()) == list(trie.items())
        for prefix in [p for p, _ in assignments] + probes:
            assert topo.origin_of_prefix(prefix) == trie.get(prefix)
        for value in values:
            address = IPv4Address(value)
            match = trie.longest_match(address)
            assert topo.covering(value) == match
            assert topo.covering_prefix(address) == (
                None if match is None else match[0])
            assert topo.origin_of_address(address) == (
                None if match is None else match[1])

    def test_root_and_host_prefixes(self):
        topo = ASTopology()
        for asn in (1, 2):
            topo.add_as(ASNode(asn=asn, tier=Tier.STUB, region="us-west"))
        host = IPv4Prefix.from_string("10.1.2.3/32")
        topo.assign_prefix(1, IPv4Prefix(0, 0))
        topo.assign_prefix(2, host)
        assert topo.covering(host.network) == (host, 2)
        assert topo.covering(host.network + 1) == (IPv4Prefix(0, 0), 1)
        assert [p for p, _ in topo.all_prefixes()] == [IPv4Prefix(0, 0), host]


class TestGeneratedTopology:
    def test_size_is_substantial(self, topo):
        assert len(topo) >= 300

    def test_tier1_full_mesh(self, topo):
        t1s = [asn for asn, n in topo.ases.items() if n.tier is Tier.T1]
        assert len(t1s) >= 8
        for i, a in enumerate(t1s):
            for b in t1s[i + 1:]:
                assert topo.relationship(a, b) is Relationship.PEER

    def test_tier1_has_no_providers(self, topo):
        for asn, node in topo.ases.items():
            if node.tier is Tier.T1:
                assert not node.providers

    def test_every_non_t1_has_a_provider(self, topo):
        for asn, node in topo.ases.items():
            if node.tier is not Tier.T1:
                assert node.providers, f"AS{asn} has no provider"

    def test_stubs_have_no_customers(self, topo):
        for node in topo.ases.values():
            if node.tier is Tier.STUB:
                assert not node.customers

    def test_relationships_are_symmetric(self, topo):
        for asn, node in topo.ases.items():
            for c in node.customers:
                assert asn in topo.ases[c].providers
            for p in node.providers:
                assert asn in topo.ases[p].customers
            for q in node.peers:
                assert asn in topo.ases[q].peers

    def test_no_dual_relationships(self, topo):
        for asn, node in topo.ases.items():
            assert not (node.customers & node.providers)
            assert not (node.customers & node.peers)
            assert not (node.providers & node.peers)

    def test_every_region_populated(self, topo):
        for region in REGIONS:
            assert topo.ases_in_region(region, Tier.STUB)
            assert topo.ases_in_region(region, Tier.T2)

    def test_every_as_owns_prefixes(self, topo):
        for asn, node in topo.ases.items():
            assert node.prefixes, f"AS{asn} owns no prefixes"

    def test_exhausted_region_raises(self):
        # 120 stubs per region need more /16s than a region's /8 holds;
        # silently skipping the rest would leave ASes with no prefix.
        with pytest.raises(ValueError, match="ran out of address space"):
            generate_as_topology(
                ASTopologyConfig(stubs_per_region=120, seed=2014))

    def test_prefixes_have_consistent_origins(self, topo):
        for prefix, asn in topo.all_prefixes():
            assert prefix in topo.ases[asn].prefixes
            assert topo.origin_of_address(prefix.first_address()) == asn

    def test_physical_graph_connected(self, topo):
        source = next(iter(topo.ases))
        assert len(topo.shortest_as_hops(source)) == len(topo)

    def test_deterministic_given_seed(self):
        a = generate_as_topology(ASTopologyConfig(seed=5))
        b = generate_as_topology(ASTopologyConfig(seed=5))
        assert sorted(a.ases) == sorted(b.ases)
        assert list(a.undirected_edges()) == list(b.undirected_edges())
        assert list(a.all_prefixes()) == list(b.all_prefixes())

    def test_different_seeds_differ(self):
        a = generate_as_topology(ASTopologyConfig(seed=5))
        b = generate_as_topology(ASTopologyConfig(seed=6))
        assert set(a.undirected_edges()) != set(b.undirected_edges())


class TestGeographyAndLatency:
    def test_position_near_region_center(self, topo):
        for asn, node in topo.ases.items():
            px, py = topo.position(asn)
            cx, cy = REGIONS[node.region]
            assert abs(px - cx) <= 10
            assert abs(py - cy) <= 10

    def test_link_latency_positive_and_symmetric(self, topo):
        edges = list(topo.undirected_edges())[:50]
        for a, b in edges:
            lat = topo.link_latency_ms(a, b)
            assert lat >= 2.0
            assert lat == topo.link_latency_ms(b, a)

    def test_cross_ocean_links_slower_than_regional(self, topo):
        us = topo.ases_in_region("us-west", Tier.T2)
        asia = topo.ases_in_region("asia-east", Tier.T2)
        regional = topo.link_latency_ms(us[0], us[1])
        transpacific = topo.link_latency_ms(us[0], asia[0])
        assert transpacific > regional * 3

    def test_path_latency_sums_links(self, topo):
        ases = sorted(topo.ases)[:3]
        a, b, c = ases
        total = topo.path_latency_ms([a, b, c])
        assert total == pytest.approx(
            topo.link_latency_ms(a, b) + topo.link_latency_ms(b, c)
        )

    def test_path_latency_single_as_is_zero(self, topo):
        asn = next(iter(topo.ases))
        assert topo.path_latency_ms([asn]) == 0.0
