"""Golden parity tests: vectorized evaluators vs the per-event reference.

The columnar data plane's contract is *bit-identical* results: the
vectorized device/content evaluators and ``per_day_update_rates`` must
produce exactly the reports — and therefore exactly the ledger series
digests — that per-event loops over the public displacement and
strategy APIs produce (``tests/reference/evaluators.py``, ranking
routes from the dict-BFS reference oracle). The device experiments
that ask the same questions (policy-sensitivity, fib-size,
ablation-multihoming) are held to their old per-event loops in
``tests/reference/experiments.py`` the same way, and fig12 to its old
per-name walk. These tests run both and compare everything, including
digests.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import evaluator as evaluator_module
from repro.core import (
    ContentPortMapper,
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    address_set_updates,
    evaluate_tradeoff,
    per_day_update_rates,
)
from repro.experiments import (
    SMALL_SCALE,
    World,
    exp_ablation_multihoming,
    exp_fib_size,
    exp_fig8,
    exp_fig12,
    exp_policy_sensitivity,
)
from repro.mobility import MobilityEvent, segment_table
from repro.net import ContentName, parse_address, parse_prefix
from repro.obs.history import digest_series
from repro.routing import RoutingOracle, VantagePoint
from repro.topology import Relationship
from repro.workload import DeviceEventColumns

from tests.reference import experiments as reference_experiments
from tests.reference.content import address_timeline, from_changes, set_at
from tests.reference.mobility import MultihomedTimeline
from tests.reference.evaluators import (
    content_report,
    device_report,
    per_day_rates,
    tradeoff_result,
    union_table_sizes,
)
from tests.reference.routing import ReferenceOracle
from tests.test_core_evaluator import (
    L6,
    L6B,
    L7,
    content_internet,
    ev,
    loc,
    measurement,
    timeline,
    vantage,
)

#: An unannounced address: exercises the missing-covering-prefix path.
L_DARK = loc("192.168.1.1", "192.168.0.0/16", 999)


def device_events():
    return [
        ev(L6, L7, day=0),
        ev(L6, L6B, day=0),
        ev(L7, L6, day=1),
        ev(L6B, L7, day=1),
        MobilityEvent("u2", 2, 3.0, L7, L6),
        ev(L6, L_DARK, day=2),
        ev(L_DARK, L7, day=3),
    ]


def report_digest(report):
    return digest_series(
        "report",
        ("router", "rate", "updates", "events"),
        [[r, report.rates[r], report.updates[r], report.num_events]
         for r in report.rates],
    )


def two_routers():
    """Two vantages, the array oracle, and the dict-BFS reference."""
    topo = content_internet()
    return (
        [vantage("vp1"), vantage("vp2")],
        RoutingOracle(topo),
        ReferenceOracle(topo),
    )


def content_measurement():
    return measurement([
        timeline(
            "a.com",
            [(0, ["10.6.0.1", "10.7.0.1"]), (2, ["10.6.0.1"]),
             (5, ["10.6.0.5"]), (7, ["10.7.0.2", "10.6.0.5"]),
             (11, ["10.7.0.2"]), (13, ["10.6.0.1", "10.7.0.1"])],
        ),
        timeline(
            "b.com",
            [(0, ["10.6.0.1", "10.6.0.3"]), (4, ["10.6.0.2"]),
             (9, ["10.7.0.5"]), (15, ["10.6.0.2"])],
        ),
        # A name with no events at all.
        timeline("c.com", [(0, ["10.6.0.8"])]),
        # A name whose addresses are never routed.
        timeline("d.com", [(0, ["192.168.0.1"]), (6, ["192.168.0.2"])]),
    ])


def assert_reports_identical(vector, reference):
    assert vector.rates == reference.rates
    assert vector.updates == reference.updates
    assert vector.num_events == reference.num_events
    assert list(vector.rates) == list(reference.rates)  # dict order too
    assert report_digest(vector) == report_digest(reference)


class TestDeviceParity:
    def test_reports_identical(self):
        routers, oracle, reference_oracle = two_routers()
        reference = device_report(routers, reference_oracle, device_events())
        vector = DeviceUpdateCostEvaluator(routers, oracle).evaluate(
            device_events()
        )
        assert_reports_identical(vector, reference)

    def test_columns_input_matches_list_input(self):
        routers, oracle, _ = two_routers()
        evaluator = DeviceUpdateCostEvaluator(routers, oracle)
        from_list = evaluator.evaluate(device_events())
        from_cols = evaluator.evaluate(
            DeviceEventColumns.from_events(device_events())
        )
        assert report_digest(from_list) == report_digest(from_cols)

    def test_scalar_accepts_columns(self):
        # The per-event reference replays the columnar batch's lazily
        # rebuilt events and still agrees.
        routers, oracle, reference_oracle = two_routers()
        columns = DeviceEventColumns.from_events(device_events())
        reference = device_report(routers, reference_oracle, columns)
        vector = DeviceUpdateCostEvaluator(routers, oracle).evaluate(columns)
        assert report_digest(reference) == report_digest(vector)

    def test_empty_events(self):
        routers, oracle, _ = two_routers()
        report = DeviceUpdateCostEvaluator(routers, oracle).evaluate([])
        assert report.num_events == 0
        assert set(report.rates.values()) == {0.0}


class TestPerDayParity:
    def test_series_identical(self):
        routers, oracle, reference_oracle = two_routers()
        reference = per_day_rates(routers, reference_oracle, device_events())
        vector = per_day_update_rates(
            DeviceUpdateCostEvaluator(routers, oracle), device_events()
        )
        assert vector == reference
        assert list(vector) == list(reference)
        digest = lambda s: digest_series(
            "per_day", ("router", "rates"),
            [[r, rates] for r, rates in s.items()],
        )
        assert digest(vector) == digest(reference)

    def test_empty(self):
        routers, oracle, _ = two_routers()
        evaluator = DeviceUpdateCostEvaluator(routers, oracle)
        assert per_day_update_rates(evaluator, []) == {}


class TestContentParity:
    @pytest.mark.parametrize("strategy", list(ForwardingStrategy))
    def test_reports_identical(self, strategy):
        routers, oracle, reference_oracle = two_routers()
        meas = content_measurement()
        reference = content_report(routers, reference_oracle, meas, strategy)
        vector = ContentUpdateCostEvaluator(routers, oracle).evaluate(
            meas, strategy
        )
        assert_reports_identical(vector, reference)


#: Content addresses over :func:`content_internet` plus two prefixes:
#: three prefixes behind port 3 (one a shorter path), two addresses in
#: one prefix, one prefix behind port 4, and an unannounced address.
CONTENT_ADDRESSES = (
    "10.3.0.1", "10.6.0.1", "10.6.0.5", "10.16.0.1", "10.7.0.1",
    "192.168.0.1",
)


def content_routers():
    """Three vantages, the array oracle, and the dict-BFS reference.

    ``vp`` reaches every prefix over two peers, ``east`` only AS 7's
    (the other prefixes are covered but unrouted there), and ``cust``
    everything through one provider port.
    """
    topo = content_internet()
    topo.assign_prefix(3, parse_prefix("10.3.0.0/16"))
    topo.assign_prefix(6, parse_prefix("10.16.0.0/16"))
    routers = [
        vantage("vp"),
        VantagePoint(name="east", host_region="us-east",
                     neighbors={4: Relationship.PEER}),
        VantagePoint(name="cust", host_region="us-west",
                     neighbors={1: Relationship.PROVIDER}),
    ]
    return routers, RoutingOracle(topo), ReferenceOracle(topo)


@st.composite
def content_measurements(draw):
    """Random timelines: empty sets, single-row names and revisits."""
    timelines = []
    for index in range(draw(st.integers(0, 4))):
        total = draw(st.integers(1, 30))
        hours = sorted(draw(st.sets(st.integers(1, 29), max_size=8)))
        hours = [h for h in hours if h < total]
        sets = [
            frozenset(
                parse_address(a)
                for a in draw(st.sets(st.sampled_from(CONTENT_ADDRESSES),
                                      max_size=4))
            )
            for _ in range(len(hours) + 1)
        ]
        timelines.append(address_timeline(
            ContentName.from_domain(f"n{index}.com"), total_hours=total,
            changes=list(zip([0] + hours, sets)),
        ))
    return measurement(timelines)


class TestContentCostsParity:
    """One pass per measurement equals every per-event reference."""

    def assert_costs_identical(self, meas):
        routers, oracle, reference_oracle = content_routers()
        evaluator = ContentUpdateCostEvaluator(routers, oracle)
        for strategy in ForwardingStrategy:
            assert_reports_identical(
                evaluator.evaluate(meas, strategy),
                content_report(routers, reference_oracle, meas, strategy),
            )
        assert evaluate_tradeoff(evaluator, meas) == tradeoff_result(
            routers, reference_oracle, meas
        )
        assert evaluator.union_table_sizes(meas) == union_table_sizes(
            routers, reference_oracle, meas
        )
        # Fig. 12's complete tables: each name's hour-0 best port.
        for router in routers:
            mapper = ContentPortMapper(router, reference_oracle)
            ports = [mapper.best_port(set_at(meas.timeline(name), 0))
                     for name in meas.names()]
            assert evaluator.costs(meas).hour0_ports[router.name] == tuple(
                -1 if port is None else port for port in ports
            )
        # Paper-scale measurements span several row batches; two-row
        # batches put every name boundary case through the summing.
        with mock.patch.object(evaluator_module, "_BATCH_ROWS", 2):
            batched = ContentUpdateCostEvaluator(routers, oracle).costs(meas)
        assert batched == evaluator.costs(meas)

    @settings(max_examples=50, deadline=None)
    @given(content_measurements())
    def test_random_timelines(self, meas):
        self.assert_costs_identical(meas)

    def test_fixed_measurement(self):
        self.assert_costs_identical(content_measurement())

    def test_empty_measurement(self):
        meas = measurement([])
        self.assert_costs_identical(meas)
        routers, oracle, _ = content_routers()
        evaluator = ContentUpdateCostEvaluator(routers, oracle)
        report = evaluator.evaluate(meas, ForwardingStrategy.BEST_PORT)
        assert report.num_events == 0
        assert set(report.rates.values()) == {0.0}


class TestFig12Parity:
    """fig12's tables from the content pass equal the per-name walk."""

    def test_toy_world(self):
        routers, oracle, reference_oracle = content_routers()
        popular = measurement([
            timeline("a.com", [(0, ["10.6.0.1", "10.7.0.1"]),
                               (3, ["10.6.0.5"])]),
            timeline("www.a.com", [(0, ["10.7.0.2"])]),
            # Unrouted at east at hour 0, routed there from hour 1.
            timeline("img.a.com", [(0, ["10.6.0.2"]), (1, ["10.7.0.1"])]),
            timeline("b.com", [(0, ["10.16.0.1", "10.3.0.1"])]),
            timeline("www.b.com", [(0, ["10.16.0.1"])]),
            # Unrouted everywhere, and empty at hour 0.
            timeline("dark.com", [(0, ["192.168.0.1"])]),
            timeline("late.com", [(0, []), (2, ["10.7.0.1"])]),
        ])
        unpopular = content_measurement()

        def world(routing):
            return SimpleNamespace(
                routeviews=routers, oracle=routing,
                popular_measurement=popular,
                unpopular_measurement=unpopular,
                content_evaluator=ContentUpdateCostEvaluator(
                    routers, routing
                ),
            )

        vector = exp_fig12.run(world(oracle))
        assert_same_result(
            exp_fig12, vector,
            reference_experiments.fig12(world(reference_oracle)),
        )
        # east routes only AS 7's prefix: five names have no entry.
        assert vector.table_sizes["east"][0] == 2


# -- the device experiments against their per-event loops -------------

def device_routers():
    """Vantages over :func:`content_internet` for the device experiments.

    ``vp`` reaches both prefixes over its two peers, ``east`` only AS
    7's (10.6.0.0/16 is covered but unrouted there), and ``multi`` holds
    several candidates per prefix, so the three policies can disagree.
    """
    return [
        vantage("vp"),
        VantagePoint(name="east", host_region="us-east",
                     neighbors={4: Relationship.PEER}),
        VantagePoint(name="multi", host_region="us-west",
                     neighbors={1: Relationship.PROVIDER,
                                3: Relationship.PEER,
                                4: Relationship.PEER}),
    ]


def day(user, index, segments):
    """A user day from ``(location, hours, net type)`` segments."""
    return user, index, segments


def device_days():
    return [
        # L6 and L7 tie on 9 hours; L6, seen first, is dominant. L6B
        # shares L6's prefix.
        day("a", 0, [(L6, 9.0, "wifi"), (L7, 9.0, "cellular"),
                     (L6B, 6.0, "wifi")]),
        # The dominant address is one no prefix covers.
        day("a", 1, [(L_DARK, 16.0, "wifi"), (L6, 4.0, "cellular"),
                     (L7, 4.0, "wifi")]),
        # One segment: no event, and a one-row multihomed timeline.
        day("b", 0, [(L6, 24.0, "wifi")]),
        # An uncovered segment inside a covered day.
        day("c", 0, [(L7, 20.0, "wifi"), (L_DARK, 4.0, "wifi")]),
    ]


def device_workload(days):
    """A workload's segment table, users and events from ``days``."""
    users = sorted({user for user, _, _ in days})
    built = []
    for user, index, segments in days:
        rows, start = [], 0.0
        for location, hours, net_type in segments:
            site = (location.ip.value, location.prefix, location.asn)
            rows.append((site, start, hours, net_type == "cellular"))
            start += hours
        built.append((users.index(user), index, rows))
    segments = segment_table(built)
    columns = DeviceEventColumns.from_segments(segments, users)
    return SimpleNamespace(
        segments=segments, user_ids=tuple(users),
        all_transitions=columns.to_events,
    ), columns


def device_world(oracle, days=None):
    """The parts of a World the three device experiments read."""
    workload, columns = device_workload(
        device_days() if days is None else days
    )
    return SimpleNamespace(
        topology=oracle.topology,
        oracle=oracle,
        routeviews=device_routers(),
        workload=workload,
        device_event_columns=columns,
    )


def device_worlds(days=None):
    """The array oracle's world, and the dict-BFS reference's."""
    topo = content_internet()
    return (device_world(RoutingOracle(topo), days),
            device_world(ReferenceOracle(topo), days))


def assert_same_result(module, vector, reference):
    assert vector == reference
    for field in vars(reference):
        value = getattr(reference, field)
        if isinstance(value, dict):
            assert list(getattr(vector, field)) == list(value), field
    digests = lambda result: [
        digest_series(s.name, s.headers, s.rows) for s in module.series(result)
    ]
    assert digests(vector) == digests(reference)


class TestDeviceExperimentParity:
    def test_policy_sensitivity(self):
        world, reference_world = device_worlds()
        vector = exp_policy_sensitivity.run(world)
        assert_same_result(
            exp_policy_sensitivity, vector,
            reference_experiments.policy_sensitivity(reference_world),
        )
        assert vector.num_events == 5
        # vp: L6->L7 and L6->L7 again; L7->L6B; L_DARK never counts.
        assert vector.rates["bgp"]["vp"] == 3 / 5
        # east routes only 10.7.0.0/16, so no move changes its port.
        assert {r["east"] for r in vector.rates.values()} == {0.0}

    def test_policy_bgp_row_is_fig8(self):
        world, _ = device_worlds()
        report = DeviceUpdateCostEvaluator(
            world.routeviews, world.oracle
        ).evaluate(world.device_event_columns)
        assert exp_policy_sensitivity.run(world).rates["bgp"] == report.rates

    def test_fib_size(self):
        world, reference_world = device_worlds()
        vector = exp_fib_size.run(world)
        reference = reference_experiments.fib_size(reference_world)
        assert_same_result(exp_fib_size, vector, reference)
        # Only day a0's L7 segment is displaced at vp: its first-seen
        # dominant address L6 ties with L7, and L6B shares L6's port.
        # The uncovered-dominant day adds 24 hours and no displacement.
        assert vector.displaced_fraction == {
            "vp": 9.0 / 96.0, "east": 0.0, "multi": 9.0 / 96.0,
        }

    def test_fib_size_tie_goes_to_first_seen(self):
        # L7 comes first and ties with L6, the lower address: L7 is home.
        days = [day("a", 0, [(L7, 12.0, "wifi"), (L6, 12.0, "wifi")])]
        world, reference_world = device_worlds(days)
        dominant, _ = exp_fib_size.dominant_addresses(world.workload.segments)
        assert dominant.tolist() == [L7.ip.value]
        vector = exp_fib_size.run(world)
        assert vector == reference_experiments.fib_size(reference_world)
        assert vector.displaced_fraction["vp"] == 0.5

    def test_fib_size_uncovered_dominant(self):
        days = [day("a", 0, [(L_DARK, 16.0, "wifi"), (L6, 4.0, "wifi"),
                             (L7, 4.0, "wifi")])]
        world, reference_world = device_worlds(days)
        vector = exp_fib_size.run(world)
        assert vector == reference_experiments.fib_size(reference_world)
        assert vector.user_days == 1
        assert set(vector.displaced_fraction.values()) == {0.0}

    @pytest.mark.parametrize("dual_radio_prob", [0.0, 1.0])
    def test_ablation_multihoming(self, dual_radio_prob):
        world, reference_world = device_worlds()
        vector = exp_ablation_multihoming.run(world, dual_radio_prob)
        reference = reference_experiments.ablation_multihoming(
            reference_world, dual_radio_prob
        )
        assert_same_result(exp_ablation_multihoming, vector, reference)
        assert vector.events_single == 5
        assert vector.total_users == 3

    def test_single_leg_is_fig8(self):
        world, _ = device_worlds()
        report = DeviceUpdateCostEvaluator(
            world.routeviews, world.oracle
        ).evaluate(world.device_event_columns)
        assert exp_ablation_multihoming.run(world).single == report.rates

    def test_one_change_point_has_no_event(self):
        routers, oracle, _ = two_routers()
        matrix = from_changes("b", [(0.0, frozenset({L6.ip, L7.ip}))])
        updates = address_set_updates(routers, oracle, [matrix])
        assert updates == {
            ForwardingStrategy.BEST_PORT: {"vp1": 0, "vp2": 0},
            ForwardingStrategy.CONTROLLED_FLOODING: {"vp1": 0, "vp2": 0},
        }
        assert address_set_updates(routers, oracle, [])[
            ForwardingStrategy.BEST_PORT
        ] == {"vp1": 0, "vp2": 0}


@st.composite
def address_set_timelines(draw):
    """Random float-hour set timelines: empty sets, repeats, one row."""
    timelines = []
    for index in range(draw(st.integers(0, 4))):
        hours = sorted(draw(st.sets(
            st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=8
        )))
        changes = [
            (hour, frozenset(
                parse_address(a) for a in draw(st.sets(
                    st.sampled_from(CONTENT_ADDRESSES), max_size=3
                ))
            ))
            for hour in hours
        ]
        timelines.append(MultihomedTimeline(f"u{index}", True, changes))
    return timelines


class TestAddressSetParity:
    @settings(max_examples=50, deadline=None)
    @given(address_set_timelines())
    def test_random_timelines(self, timelines):
        routers, oracle, reference_oracle = content_routers()
        best, flooding, _ = reference_experiments.multihomed_updates(
            routers, reference_oracle, timelines
        )
        matrices = [from_changes(t.user_id, t.changes) for t in timelines]
        assert address_set_updates(routers, oracle, matrices) == {
            ForwardingStrategy.BEST_PORT: best,
            ForwardingStrategy.CONTROLLED_FLOODING: flooding,
        }


@pytest.fixture(scope="module")
def small_world():
    return World(SMALL_SCALE)


class TestSmallScaleExperimentParity:
    """Each experiment equals its per-event loop on the small World."""

    def test_policy_sensitivity(self, small_world):
        vector = exp_policy_sensitivity.run(small_world)
        assert_same_result(
            exp_policy_sensitivity, vector,
            reference_experiments.policy_sensitivity(small_world),
        )
        fig8 = exp_fig8.run(small_world).report.rates
        assert vector.rates["bgp"] == fig8
        assert list(vector.rates["bgp"]) == list(fig8)

    def test_fib_size(self, small_world):
        assert_same_result(
            exp_fib_size, exp_fib_size.run(small_world),
            reference_experiments.fib_size(small_world),
        )

    def test_ablation_multihoming(self, small_world):
        vector = exp_ablation_multihoming.run(small_world)
        assert_same_result(
            exp_ablation_multihoming, vector,
            reference_experiments.ablation_multihoming(small_world),
        )
        fig8 = exp_fig8.run(small_world).report.rates
        assert vector.single == fig8
        assert list(vector.single) == list(fig8)

    def test_fig12(self, small_world):
        assert_same_result(
            exp_fig12, exp_fig12.run(small_world),
            reference_experiments.fig12(small_world),
        )
