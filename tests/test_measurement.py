"""Tests for measurement instruments: vantage fleet, controller, and
RouteViews/RIPE routers."""

import pytest

from repro import obs
from repro.content import (
    DomainUniverseConfig,
    assign_hosting,
    generate_domain_universe,
)
from repro.experiments import ExperimentScale, World
from repro.measurement import (
    RIPE_SPECS,
    ROUTEVIEWS_SPECS,
    MeasurementConfig,
    MeasurementController,
    VantageFleet,
    build_ripe_routers,
    build_routeviews_routers,
    rib_rows,
)
from repro.routing import RoutingOracle
from repro.topology import Relationship, generate_as_topology
from tests.reference.content import set_at


@pytest.fixture(scope="module")
def topo():
    return generate_as_topology()


class TestVantageFleet:
    def test_74_nodes_no_africa(self, topo):
        fleet = VantageFleet.planetlab_like(topo)
        assert len(fleet) == 74
        assert "africa" not in fleet.regions()
        # All continents except Africa (§7.1).
        assert {"us-east", "eu-west", "sa", "asia-east", "oceania"} <= (
            fleet.regions()
        )

    def test_nodes_sit_in_stub_ases(self, topo):
        fleet = VantageFleet.planetlab_like(topo)
        for node in fleet.nodes:
            assert topo.ases[node.asn].region == node.region

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            VantageFleet([])


class TestMeasurementController:
    @pytest.fixture(scope="class")
    def measured(self, topo):
        universe = generate_domain_universe(
            DomainUniverseConfig(
                num_popular=40, num_unpopular=20, popular_total_names=400
            )
        )
        directory = assign_hosting(universe, topo)
        controller = MeasurementController(
            topo, directory, config=MeasurementConfig(days=3)
        )
        return universe, controller.measure_universe(universe)

    def test_all_names_measured(self, measured):
        universe, measurement = measured
        assert set(measurement.names()) == set(universe.popular_names())

    def test_timeline_period_matches_config(self, measured):
        _, measurement = measured
        for name in measurement.names()[:10]:
            assert measurement.timeline(name).total_hours == 3 * 24

    def test_daily_counts_nonnegative(self, measured):
        _, measurement = measured
        counts = measurement.daily_event_counts()
        assert all(v >= 0 for v in counts.values())
        assert any(v > 0 for v in counts.values())

    def test_order_independent_determinism(self, topo, measured):
        universe, measurement = measured
        directory = assign_hosting(universe, topo)
        controller = MeasurementController(
            topo, directory, config=MeasurementConfig(days=3)
        )
        names = universe.popular_names()
        reversed_measurement = controller.measure(list(reversed(names)))
        for name in names[:20]:
            a = measurement.timeline(name)
            b = reversed_measurement.timeline(name)
            assert [set_at(a, h) for h in range(0, 72, 5)] == [
                set_at(b, h) for h in range(0, 72, 5)
            ]


def span_paths(spans, path=()):
    """Every span's name path from its root, e.g. ``("a", "b")``."""
    for span in spans:
        here = path + (span["name"],)
        yield here
        yield from span_paths(span["children"], here)


def change_points(measurement):
    return sum(
        tl.num_changes() + 1 for tl in measurement.timelines.values()
    )


class TestTimelinesSpan:
    def test_measure_opens_span_and_counts_change_points(self, topo):
        universe = generate_domain_universe(
            DomainUniverseConfig(
                num_popular=10, num_unpopular=5, popular_total_names=100
            )
        )
        controller = MeasurementController(
            topo, assign_hosting(universe, topo),
            config=MeasurementConfig(days=2),
        )
        with obs.using(obs.Metrics()) as collector:
            measurement = controller.measure(universe.popular_names())
        assert list(span_paths(collector.spans)) == [("content.timelines",)]
        assert collector.counters["content.timelines.change_points"] == (
            change_points(measurement)
        )

    def test_span_nests_under_the_world_build(self):
        world = World(ExperimentScale(
            "span-test", num_users=10, device_days=1, content_days=1,
            num_popular_domains=5,
        ))
        with obs.using(obs.Metrics()) as collector:
            measurement = world.popular_measurement
        assert (
            "world.measurement", "world.build.measurement",
            "content.timelines",
        ) in set(span_paths(collector.spans))
        assert collector.counters["content.timelines.change_points"] == (
            change_points(measurement)
        )


class TestRouterConstruction:
    def test_routeviews_labels_match_paper(self, topo):
        routers = build_routeviews_routers(topo)
        names = [r.name for r in routers]
        assert names == [s.name for s in ROUTEVIEWS_SPECS]
        assert len(names) == 12
        assert "Oregon-1" in names and "Mauritius" in names

    def test_ripe_set_has_13_cities(self, topo):
        routers = build_ripe_routers(topo)
        assert len(routers) == 13
        rv_regions = {s.name for s in ROUTEVIEWS_SPECS}
        distinct = [r for r in routers if r.name not in rv_regions]
        assert len(distinct) >= 10  # §6.2.2: 10 distinct cities

    def test_oregon_has_highest_next_hop_degree(self, topo):
        routers = {r.name: r for r in build_routeviews_routers(topo)}
        assert routers["Oregon-1"].next_hop_degree() == max(
            r.next_hop_degree() for r in routers.values()
        )

    def test_georgia_low_next_hop_degree(self, topo):
        # §6.2.2: "the Georgia router has a much lower next-hop degree
        # compared to the Oregon routers".
        routers = {r.name: r for r in build_routeviews_routers(topo)}
        assert routers["Georgia"].next_hop_degree() < (
            routers["Oregon-1"].next_hop_degree() / 3
        )

    def test_mauritius_single_provider(self, topo):
        routers = {r.name: r for r in build_routeviews_routers(topo)}
        mauritius = routers["Mauritius"]
        assert mauritius.next_hop_degree() <= 2
        providers = [
            rel
            for rel in mauritius.neighbors.values()
            if rel is Relationship.PROVIDER
        ]
        assert len(providers) == 1

    def test_neighbors_exist_in_topology(self, topo):
        for router in build_routeviews_routers(topo) + build_ripe_routers(topo):
            for asn in router.neighbors:
                assert asn in topo.ases

    def test_deterministic(self, topo):
        a = build_routeviews_routers(topo, seed=5)
        b = build_routeviews_routers(topo, seed=5)
        for ra, rb in zip(a, b):
            assert ra.neighbors == rb.neighbors

    def test_rib_rows_format(self, topo):
        oracle = RoutingOracle(topo)
        router = build_routeviews_routers(topo)[0]
        prefixes = [p for p, _ in list(topo.all_prefixes())[:5]]
        rows = rib_rows(router, oracle, prefixes)
        assert rows
        for prefix_text, next_hop, local_pref, med, as_path in rows:
            assert "/" in prefix_text
            assert local_pref == 0  # as in the real dumps (§6.2.1)
            assert str(next_hop) == as_path.split()[0]
