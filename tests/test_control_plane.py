"""Array-native control plane vs the references in ``tests/reference``.

Three parity obligations pinned here:

* the frontier-batched oracle (:meth:`RoutingOracle.routes_to_many`
  and :meth:`RoutingOracle.routes_to`) must equal the per-destination
  dict-BFS reference on arbitrary valley-free internets, including
  multihomed stubs, and its block sweep must reproduce the
  one-destination array sweep's four vectors bit for bit, computing
  each destination's table once whatever order requests come in;
* the vectorized FIB derivation (``VantagePoint.next_hop_table``) must
  equal the per-prefix ``fib_best`` ranking over the reference oracle,
  including under selective announcement;
* batched convergence (``update_arrival_times``, ``expected_outage``
  and ``expected_outage_under_faults``) must be bit-identical to BFS
  hop distances and to per-source, per-probe delivery walks.

Plus the serialization contracts the warm artifacts lean on:
a pickled oracle drops its frontier engine and dirty count, an array
artifact written by a different GENERATOR_VERSION is a counted cache
miss, and route tables that do not fit the topology are refused —
never a crash.
"""

import dataclasses
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults import LINK, ROUTER, FaultEvent, FaultSchedule
from repro.faults.models import MessageLossModel
from repro.forwarding import ConvergenceSimulator
from repro.net import IPv4Prefix
from repro.engine import ArtifactCache
from repro.experiments import SMALL_SCALE, World
from repro.routing import RoutingOracle, VantagePoint, frontier
from repro.topology import (
    ASNode,
    ASTopology,
    ASTopologyConfig,
    Relationship,
    Tier,
    binary_tree_topology,
    chain_topology,
    clique_topology,
    generate_as_topology,
    star_topology,
)

from .reference import convergence as reference_convergence
from .reference.routing import (
    ReferenceOracle,
    assert_same_routes,
    compute_route_arrays,
    compute_routes,
    next_hop_table,
)
from .test_property_routing import leafy_internet, random_internet


class TestRoutesToManyParity:
    @settings(max_examples=50, deadline=None)
    @given(random_internet())
    def test_batch_equals_scalar_compute(self, topo):
        dests = sorted(topo.ases)
        batch = RoutingOracle(topo).routes_to_many(dests)
        for dest in dests:
            assert_same_routes(
                batch.materialize(dest), compute_routes(topo, dest), dest
            )

    @settings(max_examples=30, deadline=None)
    @given(random_internet())
    def test_routes_to_equals_scalar_compute(self, topo):
        # The public per-dest API must agree too (it materializes from
        # the frontier engine's table).
        oracle = RoutingOracle(topo)
        for dest in sorted(topo.ases):
            assert_same_routes(
                oracle.routes_to(dest), compute_routes(topo, dest), dest
            )


def _assert_same_tables(batch, csr):
    """Every row of ``batch`` equals the one-destination array sweep,
    on all four vectors and their dtypes."""
    for d, dest in enumerate(batch.dests.tolist()):
        expected = compute_route_arrays(csr, csr.indices_of([dest])[0])
        for name, want in zip(frontier.VECTORS, expected):
            got = getattr(batch, name)[d]
            assert got.dtype == want.dtype, (dest, name)
            assert np.array_equal(got, want), (dest, name)


class TestBlockSweepParity:
    """The block sweep against the one-destination array reference.

    Breaking a tiebreak changes parents and entry nodes: keeping the
    last candidate of each group-min run fails both tests, and putting
    the peer id before the held length in stage 2's composite key fails
    the World-topology one. Sweeping a destination requested twice in
    one call moves the ``routing.batch.dests`` count.
    """

    def test_every_destination_of_the_world_topology(self):
        # 397 ASes: the all-destination request spans two blocks.
        topo = generate_as_topology()
        assert len(topo) > frontier.BLOCK
        oracle = RoutingOracle(topo)
        metrics = obs.Metrics()
        with obs.using(metrics):
            batch = oracle.routes_to_many(sorted(topo.ases))
        engine = oracle.frontier_engine()
        _assert_same_tables(batch, engine.csr)
        assert metrics.counters["routing.batch.dests"] == len(topo)
        # A cold request for every AS fills the store in request order,
        # so the batch is read-only views of it rather than a copy.
        for name in frontier.VECTORS:
            table = getattr(batch, name)
            assert np.shares_memory(table, getattr(engine, name)), name
            with pytest.raises(ValueError):
                table[0, 0] = 0
        shuffled = sorted(topo.ases)
        random.Random(7).shuffle(shuffled)
        gathered = oracle.routes_to_many(shuffled)
        assert not np.shares_memory(gathered.ptype, engine.ptype)
        _assert_same_tables(gathered, engine.csr)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_requests_in_any_order(self, data):
        topo = data.draw(random_internet())
        asns = sorted(topo.ases)
        requests = data.draw(st.lists(
            st.tuples(st.booleans(),
                      st.lists(st.sampled_from(asns), min_size=1,
                               max_size=2 * len(asns))),
            min_size=1, max_size=5,
        ))
        # Small blocks so one request spans several sweeps.
        block = data.draw(st.integers(min_value=1, max_value=4))
        oracle = RoutingOracle(topo)
        csr = oracle.frontier_engine().csr
        metrics = obs.Metrics()
        with mock.patch.object(frontier, "BLOCK", block), \
                obs.using(metrics):
            for many, dests in requests:
                if many:
                    batch = oracle.routes_to_many(dests)
                    assert batch.dests.tolist() == dests
                    _assert_same_tables(batch, csr)
                else:
                    for dest in dests:
                        assert_same_routes(oracle.routes_to(dest),
                                           compute_routes(topo, dest), dest)
        distinct = {dest for _many, dests in requests for dest in dests}
        assert metrics.counters["routing.batch.dests"] == len(distinct)
        assert oracle.frontier_engine().table_cache_size == len(distinct)


class TestLeafFold:
    """Leaves leave the stage-3 BFS and take their routes from their
    providers' columns.

    Giving a tie to the highest provider id, dropping the origin cell
    of a leaf destination, or folding a stub that has a peer each fails
    the hypothesis test.
    """

    @settings(max_examples=60, deadline=None)
    @given(leafy_internet(),
           st.sampled_from([frontier.BLOCK, 1, 2, 3, 4]),
           st.sampled_from([frontier.FOLD_CELLS, 1, 20]))
    def test_fold_equals_references(self, topo, block, cells):
        # A FOLD_CELLS below the leaf count folds one row a step.
        asns = sorted(topo.ases)
        oracle = RoutingOracle(topo)
        with mock.patch.object(frontier, "BLOCK", block), \
                mock.patch.object(frontier, "FOLD_CELLS", cells):
            batch = oracle.routes_to_many(asns)
        csr = oracle.frontier_engine().csr
        assert csr.leaf.tolist() == [
            bool(node.providers and not node.customers and not node.peers)
            for node in map(topo.ases.get, asns)
        ]
        _assert_same_tables(batch, csr)
        for dest in asns:
            assert_same_routes(batch.materialize(dest),
                               compute_routes(topo, dest), dest)

    def test_bench_internet_cold_sweep(self):
        # The benchmark's 2,124-AS Internet: its 1,980 stubs are leaves,
        # its ASNs put the 144 T1s and T2s first, and a cold request
        # for every AS sweeps nine blocks.
        topo = generate_as_topology(ASTopologyConfig(
            t2_per_region=12, stubs_per_region=180,
            prefixes_per_stub=(1, 1), prefixes_per_t2=(2, 3),
            prefixes_per_t1=(2, 4), seed=2014,
        ))
        oracle = RoutingOracle(topo)
        metrics = obs.Metrics()
        with obs.using(metrics):
            batch = oracle.routes_to_many(sorted(topo.ases))
        assert metrics.counters["routing.batch.dests"] == len(topo) == 2124
        csr = oracle.frontier_engine().csr
        dests = np.union1d(np.linspace(0, csr.n - 1, 56).astype(np.int64),
                           np.nonzero(~csr.leaf)[0][::18])
        assert 60 <= dests.size <= 64
        assert set(dests // frontier.BLOCK) == set(range(9))
        assert csr.leaf[dests].any() and not csr.leaf[dests].all()
        for d in dests.tolist():
            for name, want in zip(frontier.VECTORS,
                                  compute_route_arrays(csr, d)):
                got = getattr(batch, name)[d]
                assert got.dtype == want.dtype, (d, name)
                assert np.array_equal(got, want), (d, name)


def _attach_prefixes(topo):
    """Two /24s per AS — enough repetition for selective announcement."""
    prefixes = []
    for i, asn in enumerate(sorted(topo.ases)):
        for j in range(2):
            prefix = IPv4Prefix(((10 << 24) | (i << 12) | (j << 8)), 24)
            topo.assign_prefix(asn, prefix)
            prefixes.append(prefix)
    return prefixes


def _vantages(topo):
    """Collectors at every multi-neighbor AS, plain and selective."""
    out = []
    for asn in sorted(topo.ases):
        node = topo.ases[asn]
        neighbors = {
            nbr: topo.relationship(asn, nbr) for nbr in node.neighbors()
        }
        if len(neighbors) < 2:
            continue
        out.append(VantagePoint(
            name=f"plain-{asn}", host_region=node.region,
            neighbors=neighbors,
        ))
        out.append(VantagePoint(
            name=f"selective-{asn}", host_region=node.region,
            neighbors=neighbors, selective_fraction=0.7,
        ))
    return out[:6]  # bound the per-example cost


class TestNextHopTableParity:
    @settings(max_examples=25, deadline=None)
    @given(random_internet())
    def test_batch_equals_fib_best(self, topo):
        # random_internet multihomes a fraction of stubs/T2s (two
        # providers), and the selective-* vantages exercise the
        # announcement filter — both named in the parity obligation.
        prefixes = _attach_prefixes(topo)
        oracle = RoutingOracle(topo)
        reference = ReferenceOracle(topo)
        for vp in _vantages(topo):
            table = np.asarray(vp.next_hop_table(oracle, prefixes))
            expected = next_hop_table(vp, reference, prefixes)
            assert (table == expected).all(), vp.name

    @settings(max_examples=25, deadline=None)
    @given(random_internet())
    def test_unallocated_prefixes_and_few_providers(self, topo):
        # Unallocated prefixes route to the origin of the longest
        # allocation covering their network address: a /26 inside a
        # /24, the /8 over every /24 (its network address is the first
        # one's), and a block nothing covers. At selective_fraction 1.0
        # every prefix's coin lands, so tier-1 origins (no provider)
        # and single-homed ones meet the filter's provider test too.
        allocated = _attach_prefixes(topo)
        prefixes = allocated + [
            IPv4Prefix(allocated[-1].network | 64, 26),
            IPv4Prefix(10 << 24, 8),
            IPv4Prefix(99 << 24, 24),
        ]
        assert any(len(node.providers) < 2 for node in topo.ases.values())
        oracle = RoutingOracle(topo)
        reference = ReferenceOracle(topo)
        for vp in _vantages(topo):
            vp = dataclasses.replace(vp, selective_fraction=1.0)
            table = np.asarray(vp.next_hop_table(oracle, prefixes))
            expected = next_hop_table(vp, reference, prefixes)
            assert (table == expected).all(), vp.name

    def test_single_provider_origin_keeps_its_peer_route(self):
        # Origin 30 buys transit from 20 only and peers with 10; the
        # collector buys from both. The filter needs two providers, so
        # 10's peer route to 30 stays and wins on the lower next hop.
        topo = ASTopology()
        for asn in (10, 20, 30):
            topo.add_as(ASNode(asn, Tier.T2, "us-west"))
        topo.add_customer_provider(30, 20)
        topo.add_peering(30, 10)
        prefix = IPv4Prefix(10 << 24, 16)
        topo.assign_prefix(30, prefix)
        vp = VantagePoint(
            name="collector", host_region="us-west",
            neighbors={10: Relationship.PROVIDER, 20: Relationship.PROVIDER},
            selective_fraction=1.0,
        )
        table = vp.next_hop_table(RoutingOracle(topo), [prefix])
        expected = next_hop_table(vp, ReferenceOracle(topo), [prefix])
        assert table.tolist() == expected.tolist() == [10]


_GRAPHS = {
    "chain": lambda: chain_topology(7),
    "tree": lambda: binary_tree_topology(12),
    "clique": lambda: clique_topology(6),
    "star": lambda: star_topology(8),
}


class TestConvergenceBatchParity:
    @pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
    def test_arrival_times_are_bfs_hops(self, graph_name):
        graph = _GRAPHS[graph_name]()
        sim = ConvergenceSimulator(graph, per_hop_delay=0.5)
        for node in sorted(graph.nodes(), key=repr):
            assert sim.update_arrival_times(node) == (
                reference_convergence.update_arrival_times(graph, node, 0.5)
            )

    @pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
    @pytest.mark.parametrize("seed", [0, 7, 2014])
    def test_expected_outage_bit_identical(self, graph_name, seed):
        graph = _GRAPHS[graph_name]()
        batched = ConvergenceSimulator(graph).expected_outage(
            12, random.Random(seed)
        )
        reference = reference_convergence.expected_outage(
            graph, 12, random.Random(seed)
        )
        assert batched == reference  # exact float equality, not approx

    @pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
    @pytest.mark.parametrize("seed", [3, 11])
    def test_outage_under_faults_bit_identical(self, graph_name, seed):
        graph = _GRAPHS[graph_name]()
        nodes = sorted(graph.nodes(), key=repr)
        faults = FaultSchedule([
            FaultEvent(start=0.0, kind=ROUTER, target=nodes[1],
                       duration=2.5),
            FaultEvent(start=1.0, kind=LINK,
                       target=(nodes[0], nodes[1]), duration=3.0),
        ])
        loss = MessageLossModel(loss_rate=0.15)
        batched = ConvergenceSimulator(graph).expected_outage_under_faults(
            10, random.Random(seed), loss=loss, faults=faults
        )
        reference = reference_convergence.expected_outage_under_faults(
            graph, 10, random.Random(seed), loss, faults
        )
        assert batched == reference


class TestOraclePickleState:
    def test_pickle_drops_frontier_and_dirty(self):
        topo = star_topology_as_internet()
        oracle = RoutingOracle(topo)
        dests = sorted(topo.ases)[:3]
        oracle.routes_to_many(dests)  # builds the frontier engine
        for dest in dests:
            oracle.routes_to(dest)
        assert oracle._frontier is not None
        assert oracle.table_dirty > 0

        clone = pickle.loads(pickle.dumps(oracle))
        assert clone._frontier is None
        assert clone._dirty == 0
        assert clone.table_dirty == 0
        # ...and it still answers correctly (rebuilding lazily).
        for dest in dests:
            assert_same_routes(
                clone.routes_to(dest), compute_routes(topo, dest), dest
            )


def star_topology_as_internet():
    """A tiny fixed internet: one T1, two T2s, three multihomed stubs."""
    from repro.topology import ASNode, ASTopology, Tier

    topo = ASTopology()
    topo.add_as(ASNode(10, Tier.T1, "us-west"))
    topo.add_as(ASNode(20, Tier.T2, "us-east"))
    topo.add_as(ASNode(21, Tier.T2, "eu-west"))
    for asn in (30, 31, 32):
        topo.add_as(ASNode(asn, Tier.STUB, "asia-east"))
    topo.add_customer_provider(20, 10)
    topo.add_customer_provider(21, 10)
    topo.add_peering(20, 21)
    for asn in (30, 31, 32):
        topo.add_customer_provider(asn, 20)
        topo.add_customer_provider(asn, 21)  # multihomed
    return topo


class TestArrayArtifactVersioning:
    def test_generator_version_mismatch_is_counted_miss(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import cache as cache_mod

        store = cache_mod.ArtifactCache(str(tmp_path))
        key = store.key("oracle-tables", seed=1)
        store.store_arrays(key, {"dests": np.arange(5, dtype=np.int32)})
        assert store.load_arrays(key) is not None

        monkeypatch.setattr(
            cache_mod, "GENERATOR_VERSION",
            cache_mod.GENERATOR_VERSION + 1,
        )
        metrics = obs.Metrics()
        with obs.using(metrics):
            assert store.load_arrays(key) is None  # miss, not crash
        snap = metrics.snapshot()
        assert snap["counters"].get("cache.version_mismatch") == 1
        # The stale artifact is dropped, so the next load is a plain
        # miss with no second mismatch count.
        with obs.using(metrics):
            assert store.load_arrays(key) is None
        assert (
            metrics.snapshot()["counters"]["cache.version_mismatch"] == 1
        )

    @pytest.mark.parametrize("doctor", ["unknown-as", "repeated-dest"])
    def test_tables_that_do_not_fit_are_refused(self, tmp_path, doctor):
        cache = ArtifactCache(str(tmp_path))
        world = World(SMALL_SCALE, cache=cache)
        asns = sorted(world.topology.ases)
        world.oracle.routes_to_many(asns[:3])
        world.save_warm_artifacts()
        key = cache.key("oracle-tables", **World._topology_params())
        buffers, _meta = cache.load_arrays(key)
        doctored = {name: np.array(buf) for name, buf in buffers.items()}
        doctored["dests"][-1] = (asns[-1] + 1 if doctor == "unknown-as"
                                 else doctored["dests"][0])
        cache.store_arrays(key, doctored)

        with pytest.raises(ValueError):
            RoutingOracle(world.topology).import_route_tables(doctored)
        metrics = obs.Metrics()
        with obs.using(metrics):
            oracle = World(SMALL_SCALE, cache=cache).oracle
            assert oracle.frontier_engine().table_cache_size == 0
            assert_same_routes(oracle.routes_to(asns[0]),
                               compute_routes(world.topology, asns[0]),
                               asns[0])
        assert metrics.counters["oracle.tables_rejected"] == 1
        assert "oracle.tables_mmap" not in metrics.counters
