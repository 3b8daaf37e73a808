"""Property-based tests: BGP propagation invariants on random topologies.

Hypothesis builds small random AS internets (tiered, like the
generator but arbitrary), and the oracle's output must satisfy the
Gao-Rexford invariants on every one of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import PathType, RoutingOracle
from repro.topology import ASNode, ASTopology, Relationship, Tier

_REGIONS = ["us-west", "us-east", "eu-west", "asia-east"]


@st.composite
def random_internet(draw):
    """A random, always-valid tiered AS topology."""
    n_t1 = draw(st.integers(min_value=1, max_value=3))
    n_t2 = draw(st.integers(min_value=1, max_value=5))
    n_stub = draw(st.integers(min_value=1, max_value=8))
    topo = ASTopology()
    t1s, t2s, stubs = [], [], []
    asn = 10
    for _ in range(n_t1):
        topo.add_as(ASNode(asn, Tier.T1, _REGIONS[asn % len(_REGIONS)]))
        t1s.append(asn)
        asn += 1
    for _ in range(n_t2):
        topo.add_as(ASNode(asn, Tier.T2, _REGIONS[asn % len(_REGIONS)]))
        t2s.append(asn)
        asn += 1
    for _ in range(n_stub):
        topo.add_as(ASNode(asn, Tier.STUB, _REGIONS[asn % len(_REGIONS)]))
        stubs.append(asn)
        asn += 1
    # T1s form a full peering mesh — as on the real Internet, and
    # necessarily so: a mere tier-1 *chain* needs two consecutive peer
    # hops for cross-chain traffic, which valley-free routing forbids
    # (hypothesis found exactly that counterexample).
    for i, a in enumerate(t1s):
        for b in t1s[i + 1:]:
            topo.add_peering(a, b)
    # Every T2 buys transit from >=1 T1; extra providers and peers random.
    for t2 in t2s:
        providers = {t1s[draw(st.integers(0, len(t1s) - 1))]}
        if len(t1s) > 1 and draw(st.booleans()):
            providers.add(t1s[draw(st.integers(0, len(t1s) - 1))])
        for p in providers:
            topo.add_customer_provider(t2, p)
    for i, a in enumerate(t2s):
        for b in t2s[i + 1:]:
            if draw(st.integers(0, 3)) == 0 and not topo.are_adjacent(a, b):
                topo.add_peering(a, b)
    # Every stub buys transit from >=1 T2 (or T1 if no T2).
    upstream_pool = t2s or t1s
    for stub in stubs:
        providers = {upstream_pool[draw(st.integers(0, len(upstream_pool) - 1))]}
        if len(upstream_pool) > 1 and draw(st.booleans()):
            providers.add(
                upstream_pool[draw(st.integers(0, len(upstream_pool) - 1))]
            )
        for p in providers:
            topo.add_customer_provider(stub, p)
    return topo


@st.composite
def leafy_internet(draw):
    """A tiered AS topology in one or two disconnected components, with
    ASNs shuffled across tiers, built around the leaves the route sweep
    folds (ASes with a provider and neither customers nor peers).

    Stubs buy transit from 1–3 providers among their component's T2s
    and T1s; some stubs peer with a stub, T2 or T1 (and so are not
    leaves); T2s and T1s need not have customers; and a leaf's
    providers are unreached from the other component's destinations.
    """
    sizes = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 4), st.integers(1, 8)),
        min_size=1, max_size=2,
    ))
    asns = iter(draw(st.permutations(
        range(10, 10 + sum(map(sum, sizes))))))
    topo = ASTopology()

    def add(count, tier):
        members = []
        for _ in range(count):
            asn = next(asns)
            topo.add_as(ASNode(asn, tier, _REGIONS[asn % len(_REGIONS)]))
            members.append(asn)
        return members

    for n_t1, n_t2, n_stub in sizes:
        t1s = add(n_t1, Tier.T1)
        t2s = add(n_t2, Tier.T2)
        stubs = add(n_stub, Tier.STUB)
        for i, a in enumerate(t1s):
            for b in t1s[i + 1:]:
                topo.add_peering(a, b)
        for t2 in t2s:
            for p in draw(st.sets(st.sampled_from(t1s), min_size=1)):
                topo.add_customer_provider(t2, p)
        for stub in stubs:
            for p in draw(st.sets(st.sampled_from(t2s + t1s), min_size=1,
                                  max_size=3)):
                topo.add_customer_provider(stub, p)
        for stub in stubs:
            if draw(st.integers(0, 2)) == 0:
                peer = draw(st.sampled_from(stubs + t2s + t1s))
                if peer != stub and not topo.are_adjacent(stub, peer):
                    topo.add_peering(stub, peer)
    return topo


def is_valley_free(topo, path):
    seen_peer_or_down = False
    peers = 0
    for u, v in zip(path, path[1:]):
        rel = topo.relationship(u, v)
        if rel is Relationship.PROVIDER:
            if seen_peer_or_down:
                return False
        else:
            seen_peer_or_down = True
            if rel is Relationship.PEER:
                peers += 1
    return peers <= 1


class TestOracleInvariants:
    @settings(max_examples=60, deadline=None)
    @given(random_internet())
    def test_paths_valid(self, topo):
        oracle = RoutingOracle(topo)
        for dest in topo.ases:
            table = oracle.routes_to(dest)
            for asn, bp in table.items():
                # Endpoints and adjacency.
                assert bp.path[0] == asn
                assert bp.path[-1] == dest
                for u, v in zip(bp.path, bp.path[1:]):
                    assert topo.are_adjacent(u, v)
                # Loop freedom.
                assert len(set(bp.path)) == len(bp.path)
                # Valley freedom.
                assert is_valley_free(topo, bp.path), (dest, bp.path)

    @settings(max_examples=60, deadline=None)
    @given(random_internet())
    def test_full_reachability(self, topo):
        # The construction is connected (every AS has transit up to the
        # T1 chain), so every AS must reach every destination.
        oracle = RoutingOracle(topo)
        for dest in topo.ases:
            assert len(oracle.routes_to(dest)) == len(topo.ases)

    @settings(max_examples=40, deadline=None)
    @given(random_internet())
    def test_path_type_matches_first_edge(self, topo):
        oracle = RoutingOracle(topo)
        for dest in topo.ases:
            for asn, bp in oracle.routes_to(dest).items():
                if bp.path_type is PathType.ORIGIN:
                    assert asn == dest
                    continue
                first_rel = topo.relationship(asn, bp.path[1])
                expected = {
                    Relationship.CUSTOMER: PathType.CUSTOMER,
                    Relationship.PEER: PathType.PEER,
                    Relationship.PROVIDER: PathType.PROVIDER,
                }[first_rel]
                assert bp.path_type is expected

    @settings(max_examples=40, deadline=None)
    @given(random_internet())
    def test_customer_routes_preferred(self, topo):
        # If an AS's chosen route is peer- or provider-learned, it must
        # have no customer route of any length: its customer cone does
        # not contain the destination.
        oracle = RoutingOracle(topo)
        for dest in topo.ases:
            table = oracle.routes_to(dest)
            for asn, bp in table.items():
                if bp.path_type in (PathType.ORIGIN, PathType.CUSTOMER):
                    continue
                # BFS down customer edges from asn must not find dest.
                stack = [asn]
                cone = set()
                while stack:
                    node = stack.pop()
                    for customer in topo.ases[node].customers:
                        if customer not in cone:
                            cone.add(customer)
                            stack.append(customer)
                assert dest not in cone

    @settings(max_examples=30, deadline=None)
    @given(random_internet())
    def test_shortest_within_type(self, topo):
        # Among customer routes, the chosen path is at most as long as
        # any single-provider-edge alternative implied by a neighbor's
        # customer route (weak but cheap optimality check).
        oracle = RoutingOracle(topo)
        for dest in topo.ases:
            table = oracle.routes_to(dest)
            for asn, bp in table.items():
                if bp.path_type is not PathType.CUSTOMER:
                    continue
                for customer in topo.ases[asn].customers:
                    other = table.get(customer)
                    if other and other.path_type in (
                        PathType.ORIGIN,
                        PathType.CUSTOMER,
                    ):
                        assert bp.length() <= other.length() + 1
