"""The mobility workload's segment table against the object simulator.

``generate_workload`` writes one segment table and checks it once;
``as_columns`` gathers its events with numpy; the Fig. 6/7/9, Fig. 10,
fib-size and multihoming readers reduce the table's columns.
``tests/reference/mobility.py`` is the object simulator and the object
readers all of these replaced, and the tests here hold them to it on
drawn configs, then pin each table check to the ``ValueError`` its
record object raises.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments.exp_fib_size import dominant_addresses
from repro.experiments.exp_fig10 import home_visits
from repro.mobility import (
    CLASS_WEIGHTS,
    DayStats,
    MobilityWorkloadConfig,
    NetworkLocation,
    UserClass,
    build_multihomed_timeline,
    check_segments,
    day_stats,
    dominant_residence_samples,
    generate_workload,
    segment_table,
    user_averages,
)
from repro.net import IPv4Address, IPv4Prefix
from repro.topology import ASTopologyConfig, generate_as_topology
from repro.workload import DeviceEventColumns
from repro.workload.columns import SEGMENT_DTYPE, segment_moves
from tests.reference import experiments as reference_experiments
from tests.reference import mobility as reference
from tests.reference.content import from_changes
from tests.reference.mobility import DaySegment, UserDay

#: The default ~400-AS Internet and a 2,124-AS one.
TOPOLOGIES = {
    "default": ASTopologyConfig(),
    "large": ASTopologyConfig(
        t2_per_region=12,
        stubs_per_region=180,
        prefixes_per_stub=(1, 1),
        prefixes_per_t2=(2, 3),
        prefixes_per_t1=(2, 4),
    ),
}


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def topology(request):
    return generate_as_topology(TOPOLOGIES[request.param])


configs = st.builds(
    MobilityWorkloadConfig,
    num_users=st.integers(1, 30),
    num_days=st.integers(1, 8),
    seed=st.integers(0, 2**64),
    mobility_scale=st.floats(0.25, 4.0),
    class_weights=st.one_of(
        st.just(dict(CLASS_WEIGHTS)),
        st.sampled_from(list(UserClass)).map(lambda cls: {cls: 1.0}),
    ),
)


def flattened(profiles, user_days):
    """The segment-table rows of object ``user_days``."""
    index = {profile.user_id: i for i, profile in enumerate(profiles)}
    return [
        (index[ud.user_id], ud.day, seg.start_hour, seg.duration_hours,
         seg.location.ip.value, seg.location.prefix.network,
         seg.location.prefix.length, seg.location.asn,
         seg.net_type == "cellular")
        for ud in user_days
        for seg in ud.segments
    ]


class TestObjectSimulatorParity:
    @settings(max_examples=40, deadline=None)
    @given(cfg=configs)
    def test_table_views_and_counter_match(self, topology, cfg):
        metrics = obs.Metrics()
        with obs.using(metrics):
            workload = generate_workload(topology, cfg)
        profiles, user_days = reference.simulate(topology, cfg)
        expected = reference.event_columns(user_days)

        assert workload.segments.dtype == SEGMENT_DTYPE
        assert workload.segments.tolist() == flattened(profiles, user_days)
        columns = workload.as_columns()
        assert columns.table.tobytes() == expected.table.tobytes()
        assert columns.users == expected.users
        assert metrics.counters.get("mobility.generate.events", 0) == len(
            expected
        )
        assert reference.user_days(workload) == user_days
        assert workload.all_transitions() == [
            event for ud in user_days for event in ud.transitions()
        ]

    def test_generation_builds_no_record_objects(self, topology, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(IPv4Address, "__init__", refuse)
        for cls in (NetworkLocation, DaySegment, UserDay):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        workload = generate_workload(
            topology, MobilityWorkloadConfig(num_users=30, num_days=3)
        )
        assert len(workload.as_columns()) > 0
        # The statistics, fig10 and fib-size readers build none either.
        segments = workload.segments
        assert len(day_stats(segments).user) == 30 * 3
        home_visits(segments), dominant_addresses(segments)
        # The object events are where records are built.
        with pytest.raises(AssertionError, match="built a"):
            workload.all_transitions()

    def test_pickle_carries_the_table_not_the_views(self, topology):
        workload = generate_workload(
            topology, MobilityWorkloadConfig(num_users=10, num_days=2)
        )
        columns = workload.as_columns()
        copy = pickle.loads(pickle.dumps(workload))
        assert copy._columns is None
        assert copy.segments.tobytes() == workload.segments.tobytes()
        assert copy.user_ids == workload.user_ids
        assert copy.as_columns().table.tobytes() == columns.table.tobytes()


class TestTableReaders:
    """Each table reduction equals its object reader on drawn configs."""

    @settings(max_examples=40, deadline=None)
    @given(cfg=configs)
    def test_statistics_match_the_object_readers(self, topology, cfg):
        workload = generate_workload(topology, cfg)
        segments, users = workload.segments, workload.user_ids
        days = reference.user_days(workload)

        stats = day_stats(segments)
        expected = [reference.day_stats(ud) for ud in days]
        assert [users[u] for u in stats.user.tolist()] == [
            s.user_id for s in expected
        ]
        for name in DayStats._fields[1:]:
            assert getattr(stats, name).tolist() == [
                getattr(s, name) for s in expected
            ], name
        assert user_averages(segments, users) == reference.user_averages(days)
        assert dominant_residence_samples(segments) == (
            reference.dominant_residence_samples(days)
        )

    @settings(max_examples=40, deadline=None)
    @given(cfg=configs)
    def test_fig10_and_fib_size_match_the_object_readers(self, topology, cfg):
        workload = generate_workload(topology, cfg)
        days = reference.user_days(workload)
        assert home_visits(workload.segments) == (
            reference_experiments.home_visits(days)
        )
        dominant, day = dominant_addresses(workload.segments)
        assert dominant.tolist() == reference_experiments.dominant_addresses(
            days
        )
        assert day.tolist() == [
            index for index, ud in enumerate(days) for _ in ud.segments
        ]

    @settings(max_examples=40, deadline=None)
    @given(cfg=configs, flip=st.booleans(),
           hold=st.floats(0.0, 6.0, allow_nan=False))
    def test_multihomed_change_points(self, topology, cfg, flip, hold):
        workload = generate_workload(topology, cfg)
        segments = workload.segments
        by_user = {}
        for ud in reference.user_days(workload):
            by_user.setdefault(ud.user_id, []).append(ud)
        for index, user_id in enumerate(workload.user_ids):
            # Every other user is dual-radio.
            dual = (index % 2 == 0) != flip
            matrix = build_multihomed_timeline(
                user_id, segments[segments["user"] == index], dual, hold
            )
            objects = reference.build_multihomed_timeline(
                by_user[user_id], dual, hold
            )
            expected = from_changes(user_id, objects.changes)
            assert matrix.name == user_id
            assert matrix.hours.dtype == expected.hours.dtype == np.float64
            assert matrix.hours.tolist() == expected.hours.tolist()
            assert matrix.addrs.dtype == expected.addrs.dtype
            assert matrix.addrs.tolist() == expected.addrs.tolist()
            assert np.array_equal(matrix.membership, expected.membership)


def segments(rows):
    """A segment table from ``(user, day, start, duration, ip)`` rows,
    every address in 10.0.0.0/16 of AS 1."""
    return np.array(
        [(u, d, s, t, (10 << 24) | ip, 10 << 24, 16, 1, False)
         for u, d, s, t, ip in rows],
        dtype=SEGMENT_DTYPE,
    )


class TestEventGather:
    def test_moves_stay_inside_one_user_day(self):
        table = segments([
            (0, 0, 0.0, 12.0, 1), (0, 0, 12.0, 12.0, 2),
            # A new day, and a new user, at another address: no move.
            (0, 1, 0.0, 24.0, 3),
            (1, 1, 0.0, 6.0, 4), (1, 1, 6.0, 18.0, 4),
        ])
        assert segment_moves(table).tolist() == [0]
        columns = DeviceEventColumns.from_segments(table, ("zed", "amy"))
        assert columns.users == ("zed",)
        assert columns.table["hour"].tolist() == [12.0]

    def test_users_interned_in_first_event_order(self):
        table = segments([
            (0, 0, 0.0, 24.0, 1),
            (2, 0, 0.0, 5.0, 1), (2, 0, 5.0, 19.0, 2),
            (1, 0, 0.0, 5.0, 1), (1, 0, 5.0, 19.0, 2),
            (2, 1, 0.0, 5.0, 1), (2, 1, 5.0, 19.0, 2),
        ])
        columns = DeviceEventColumns.from_segments(
            table, ("amy", "bob", "cat")
        )
        assert columns.users == ("cat", "bob")
        assert columns.table["user"].tolist() == [0, 1, 0]
        assert [e.user_id for e in columns] == ["cat", "bob", "cat"]

    def test_no_moves(self):
        columns = DeviceEventColumns.from_segments(
            segments([(0, 0, 0.0, 24.0, 1)]), ("amy",)
        )
        assert len(columns) == 0 and columns.users == ()


HOME = (IPv4Prefix(10 << 24, 16).network + 5, IPv4Prefix(10 << 24, 16), 1)
CELL = (IPv4Prefix(11 << 24, 16).network + 9, IPv4Prefix(11 << 24, 16), 2)


def record_error(build):
    """The message of the ``ValueError`` a record object raises."""
    with pytest.raises(ValueError) as error:
        build()
    return str(error.value)


def location(loc):
    ip, prefix, asn = loc
    return NetworkLocation(IPv4Address(ip), prefix, asn)


class TestChecks:
    """Each table check raises what its record object raises."""

    def test_valid_day(self):
        table = segment_table([(0, 3, [(HOME, 0.0, 9.5, False),
                                       (CELL, 9.5, 14.5, True)])])
        assert table.tolist() == [
            (0, 3, 0.0, 9.5, HOME[0], 10 << 24, 16, 1, False),
            (0, 3, 9.5, 14.5, CELL[0], 11 << 24, 16, 2, True),
        ]

    def test_raw_zero_duration_fails_before_normalize(self):
        # _normalize would drop this row; DaySegment refused it first.
        rows = [(HOME, 0.0, 0.0, False), (CELL, 0.0, 24.0, True)]
        expected = record_error(lambda: DaySegment(location(HOME), 0.0, 0.0))
        with pytest.raises(ValueError) as error:
            segment_table([(0, 0, rows)])
        assert str(error.value) == expected == "non-positive duration: 0.0"

    def test_negative_duration(self):
        table = segments([(0, 0, 0.0, 25.0, 1), (0, 0, 25.0, -1.0, 2)])
        expected = record_error(
            lambda: DaySegment(location(HOME), 0.0, -1.0)
        )
        with pytest.raises(ValueError, match="^non-positive duration: -1.0$"):
            check_segments(table)
        assert expected == "non-positive duration: -1.0"

    @pytest.mark.parametrize("start", [-0.5, 24.0, 24.5])
    def test_raw_start_out_of_range_fails_before_normalize(self, start):
        # _normalize would drop the row: the day already reached 24 h.
        rows = [(HOME, 0.0, 24.0, False), (CELL, start, 1.0, True)]
        expected = record_error(
            lambda: DaySegment(location(CELL), start, 1.0)
        )
        with pytest.raises(ValueError) as error:
            segment_table([(0, 0, rows)])
        assert str(error.value) == expected
        assert expected == f"start hour out of range: {start}"

    def test_start_out_of_range_in_table(self):
        table = segments([(0, 0, 0.0, 24.0, 1), (0, 1, 24.0, 1.0, 1)])
        with pytest.raises(ValueError, match="^start hour out of range: 24.0$"):
            check_segments(table)

    def test_gap(self):
        stays = [DaySegment(location(HOME), 0.0, 10.0),
                 DaySegment(location(CELL), 10.5, 13.5)]
        expected = record_error(lambda: UserDay("u", 0, stays))
        table = segments([(0, 0, 0.0, 10.0, 1), (0, 0, 10.5, 13.5, 2)])
        with pytest.raises(ValueError) as error:
            check_segments(table)
        assert str(error.value) == expected == (
            "segments must be contiguous: gap at hour 10.000"
        )

    def test_gap_within_tolerance(self):
        check_segments(segments([(0, 0, 0.0, 10.0, 1),
                                 (0, 0, 10.0 + 5e-7, 14.0 - 5e-7, 2)]))

    def test_day_short_of_24h(self):
        stays = [DaySegment(location(HOME), 0.0, 20.0)]
        expected = record_error(lambda: UserDay("u", 0, stays))
        # The next user-day starts over at hour 0.
        table = segments([(0, 0, 0.0, 20.0, 1), (0, 1, 0.0, 24.0, 1)])
        with pytest.raises(ValueError) as error:
            check_segments(table)
        assert str(error.value) == expected == "day covers 20.000h, expected 24h"

    def test_day_past_24h_after_normalize(self):
        # The last row is dropped by _normalize, leaving a 30 h day.
        rows = [(HOME, 0.0, 30.0, False), (CELL, 23.0, 1.0, True)]
        with pytest.raises(ValueError, match="^day covers 30.000h, expected 24h$"):
            segment_table([(0, 0, rows)])

    def test_address_outside_prefix(self):
        outside = ((11 << 24) + 1, IPv4Prefix(10 << 24, 16), 1)
        expected = record_error(lambda: location(outside))
        with pytest.raises(ValueError) as error:
            segment_table([(0, 0, [(outside, 0.0, 24.0, False)])])
        assert str(error.value) == expected == (
            "11.0.0.1 is not inside 10.0.0.0/16"
        )

    def test_empty_day(self):
        expected = record_error(lambda: UserDay("u", 0, []))
        with pytest.raises(ValueError) as error:
            segment_table([(0, 0, [(HOME, 0.0, 24.0, False)]), (0, 1, [])])
        assert str(error.value) == expected == (
            "a user day needs at least one segment"
        )

    def test_checks_cover_every_user_day(self):
        days = [(u, d, [(HOME, 0.0, 24.0, False)])
                for u in range(3) for d in range(4)]
        days[7] = (1, 3, [(HOME, 0.0, 24.0, False), (CELL, 25.0, 1.0, True)])
        with pytest.raises(ValueError, match="start hour out of range: 25.0"):
            segment_table(days)
        assert len(segment_table(days[:7])) == 7


def test_simulated_rows_are_plain():
    from repro.mobility import AccessNetwork, UserProfile, simulate_user_day

    cell = AccessNetwork(asn=2, prefixes=[CELL[1]], sticky=False)
    profile = UserProfile("u", UserClass.CELLULAR_ONLY, "us-west", None,
                          None, cell)
    rows = simulate_user_day(profile, 0, random.Random(3))
    assert rows
    for (ip, prefix, asn), start, duration, cellular in rows:
        assert type(ip) is int and prefix is CELL[1] and asn == 2
        assert isinstance(start, float) and isinstance(duration, float)
        assert cellular is True
