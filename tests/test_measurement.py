"""Tests for measurement instruments: vantage fleet, controller,
RouteViews/RIPE routers, and the NomadLog app pipeline."""

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
    NomadLogApp,
    NomadLogDatabase,
    VantageFleet,
    build_ripe_routers,
    build_routeviews_routers,
    collect_logs,
    rib_rows,
)
from repro.mobility import MobilityWorkloadConfig, generate_workload
from repro.routing import RoutingOracle
from repro.topology import Relationship, generate_as_topology


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
            assert [a.set_at(h) for h in range(0, 72, 5)] == [
                b.set_at(h) for h in range(0, 72, 5)
            ]

    def test_all_events_iterates(self, measured):
        _, measurement = measured
        events = list(measurement.all_events())
        assert len(events) == sum(
            measurement.timeline(n).num_changes() for n in measurement.names()
        )


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


class TestNomadLogPipeline:
    @pytest.fixture(scope="class")
    def database(self, topo):
        workload = generate_workload(
            topo, MobilityWorkloadConfig(num_users=40, num_days=4, seed=3)
        )
        return collect_logs(workload, seed=3)

    def test_device_ids_hashed(self, database):
        for device in database.devices():
            assert len(device) == 16
            int(device, 16)  # hex digest prefix

    def test_rows_sorted_per_device(self, database):
        device = database.devices()[0]
        rows = database.rows_for(device)
        times = [r.time_hours for r in rows]
        assert times == sorted(times)

    def test_rows_have_paper_schema(self, database):
        row = database.rows[0]
        device_id, time_hours, ip, net_type, latlon = row.as_tuple()
        assert isinstance(ip, str) and ip.count(".") == 3
        assert net_type in ("wifi", "cellular")

    def test_short_user_filter(self):
        db = NomadLogDatabase()
        app = NomadLogApp("shorty")
        app.record_connectivity_event(0.0, "1.1.1.1", "wifi")
        app.record_connectivity_event(2.0, "1.1.1.2", "wifi")
        app.try_upload(on_wifi=True, on_power=True)
        db.ingest(app.uploaded)
        assert db.devices()
        assert db.filter_short_users(min_days=1.0).devices() == []

    def test_upload_requires_wifi_and_power(self):
        app = NomadLogApp("u")
        app.record_connectivity_event(0.0, "1.1.1.1", "cellular")
        assert app.try_upload(on_wifi=False, on_power=True) == 0
        assert app.try_upload(on_wifi=True, on_power=False) == 0
        assert app.pending() == 1
        assert app.try_upload(on_wifi=True, on_power=True) == 1
        assert app.pending() == 0

    def test_gps_permission_respected(self):
        app = NomadLogApp("u", gps_permission=False)
        app.record_connectivity_event(0.0, "1.1.1.1", "wifi", latlon=(1.0, 2.0))
        app.try_upload(on_wifi=True, on_power=True)
        assert app.uploaded[0].latlon is None

    def test_database_covers_most_users(self, database):
        # 40 simulated users; nearly all run for the full 4 days.
        assert len(database.devices()) >= 35
