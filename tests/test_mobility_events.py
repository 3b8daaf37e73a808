"""Tests for mobility record types and per-day statistics.

The statistics, and fig10's home AS, reduce a segment table; the hand
cases below build one from ``(location, hours)`` stays. ``DaySegment``
and ``UserDay`` are the object records of ``tests/reference/mobility.py``.
"""

import pytest

from repro.mobility import (
    MobilityEvent,
    NetworkLocation,
    cdf_points,
    day_stats,
    dominant_residence_samples,
    percentile,
    residence,
    segment_table,
    user_averages,
)
from repro.experiments.exp_fig10 import home_visits
from repro.net import parse_address, parse_prefix
from tests.reference.mobility import DaySegment, UserDay


def loc(ip, prefix, asn):
    return NetworkLocation(
        ip=parse_address(ip), prefix=parse_prefix(prefix), asn=asn
    )

HOME = loc("10.0.0.5", "10.0.0.0/16", 100)
CELL_A = loc("10.1.0.9", "10.1.0.0/16", 200)
CELL_B = loc("10.1.7.3", "10.1.0.0/16", 200)
WORK = loc("10.2.0.7", "10.2.0.0/16", 300)


def make_day(specs, user="u1", day=0):
    """specs: list of (location, duration)."""
    segments = []
    cursor = 0.0
    for location, duration in specs:
        segments.append(
            DaySegment(location=location, start_hour=cursor, duration_hours=duration)
        )
        cursor += duration
    return UserDay(user_id=user, day=day, segments=segments)


def table(*days):
    """A segment table of ``(user, day, specs)`` days, ``specs`` as
    ``(location, hours)`` stays from hour 0."""
    built = []
    for user, day, specs in days:
        rows, cursor = [], 0.0
        for location, hours in specs:
            site = (location.ip.value, location.prefix, location.asn)
            rows.append((site, cursor, hours, False))
            cursor += hours
        built.append((user, day, rows))
    return segment_table(built)


def stats_of(specs):
    """The statistics of one day's stays, one value per column."""
    stats = day_stats(table((0, 0, specs)))
    return type(stats)(*(column.tolist()[0] for column in stats))


class TestNetworkLocation:
    def test_ip_must_be_in_prefix(self):
        with pytest.raises(ValueError):
            loc("11.0.0.5", "10.0.0.0/16", 100)

    def test_hashable(self):
        assert len({HOME, HOME, WORK}) == 2


class TestDaySegment:
    def test_positive_duration_required(self):
        with pytest.raises(ValueError):
            DaySegment(location=HOME, start_hour=0.0, duration_hours=0.0)

    def test_start_hour_range(self):
        with pytest.raises(ValueError):
            DaySegment(location=HOME, start_hour=24.5, duration_hours=1.0)

    def test_end_hour(self):
        seg = DaySegment(location=HOME, start_hour=8.0, duration_hours=2.5)
        assert seg.end_hour == 10.5


class TestUserDay:
    def test_must_cover_24h(self):
        with pytest.raises(ValueError):
            make_day([(HOME, 23.0)])

    def test_must_be_contiguous(self):
        segs = [
            DaySegment(location=HOME, start_hour=0.0, duration_hours=10.0),
            DaySegment(location=WORK, start_hour=11.0, duration_hours=13.0),
        ]
        with pytest.raises(ValueError):
            UserDay(user_id="u", day=0, segments=segs)

    def test_needs_segments(self):
        with pytest.raises(ValueError):
            UserDay(user_id="u", day=0, segments=[])

    def test_transitions_only_on_ip_change(self):
        day = make_day([(HOME, 8.0), (HOME, 4.0), (CELL_A, 4.0), (HOME, 8.0)])
        events = day.transitions()
        assert len(events) == 2
        assert events[0].old == HOME
        assert events[0].new == CELL_A
        assert events[1].old == CELL_A

    def test_mobility_event_flags(self):
        ev = MobilityEvent(user_id="u", day=0, hour=9.0, old=CELL_A, new=CELL_B)
        assert not ev.changes_prefix()
        assert not ev.changes_as()
        ev2 = MobilityEvent(user_id="u", day=0, hour=9.0, old=HOME, new=CELL_A)
        assert ev2.changes_prefix()
        assert ev2.changes_as()


class TestDayStats:
    def test_counts(self):
        stats = stats_of(
            [(HOME, 8.0), (CELL_A, 2.0), (CELL_B, 2.0), (WORK, 8.0), (HOME, 4.0)]
        )
        assert stats.distinct_ips == 4
        assert stats.distinct_prefixes == 3
        assert stats.distinct_ases == 3
        assert stats.ip_transitions == 4
        assert stats.prefix_transitions == 3  # home->cellA, cellB->work, work->home
        assert stats.as_transitions == 3

    def test_dominant_fractions(self):
        stats = stats_of([(HOME, 12.0), (CELL_A, 6.0), (CELL_B, 6.0)])
        assert stats.dominant_ip_fraction == pytest.approx(0.5)
        # AS 200 hosts both cellular addresses: 12h total, tied with
        # home; fig10's home is the lower ASN.
        assert stats.dominant_as_fraction == pytest.approx(0.5)
        assert home_visits(
            table((0, 0, [(HOME, 12.0), (CELL_A, 6.0), (CELL_B, 6.0)]))
        ) == [(100, 200)]

    def test_tie_goes_to_lowest_asn_whatever_comes_first(self):
        specs = [(WORK, 8.0), (CELL_A, 8.0), (HOME, 8.0)]
        stats = stats_of(specs)
        # The other ASes follow in first-seen order.
        assert home_visits(table((0, 0, specs))) == [(100, 300), (100, 200)]
        assert stats.dominant_as_fraction == 8.0 / 24.0
        assert stats.dominant_ip_fraction == 8.0 / 24.0

    def test_dominant_as_can_exceed_dominant_ip(self):
        specs = [(CELL_A, 10.0), (CELL_B, 10.0), (HOME, 4.0)]
        stats = stats_of(specs)
        assert stats.dominant_as_fraction == pytest.approx(20.0 / 24.0)
        assert stats.dominant_ip_fraction == pytest.approx(10.0 / 24.0)
        assert home_visits(table((0, 0, specs))) == [(200, 100)]

    def test_single_location_day(self):
        stats = stats_of([(HOME, 24.0)])
        assert stats.distinct_ips == 1
        assert stats.ip_transitions == 0
        assert stats.dominant_ip_fraction == pytest.approx(1.0)

    def test_nested_prefixes_are_distinct(self):
        # One network address, two lengths: two prefixes, one move.
        inner = loc("10.0.0.7", "10.0.0.0/24", 100)
        stats = stats_of([(HOME, 12.0), (inner, 12.0)])
        assert stats.distinct_prefixes == 2
        assert stats.prefix_transitions == 1
        assert stats.dominant_prefix_fraction == 0.5

    def test_hours_by_asn(self):
        t = table((0, 0, [(HOME, 18.0), (CELL_A, 6.0)]))
        stays = residence(t, t["asn"])
        assert stays.key.tolist() == [100, 200]
        assert stays.hours.tolist() == [18.0, 6.0]

    def test_days_split_at_user_and_day(self):
        # Three days in a row: no transition crosses a day or a user,
        # and each day has its own home AS (a one-AS day visits none).
        t = table(
            (0, 0, [(HOME, 24.0)]),
            (0, 1, [(WORK, 20.0), (HOME, 4.0)]),
            (1, 1, [(CELL_A, 6.0), (CELL_B, 6.0), (WORK, 12.0)]),
        )
        stats = day_stats(t)
        assert stats.user.tolist() == [0, 0, 1]
        assert stats.distinct_ases.tolist() == [1, 2, 2]
        assert stats.ip_transitions.tolist() == [0, 1, 2]
        assert stats.as_transitions.tolist() == [0, 1, 1]
        assert stats.dominant_ip_fraction.tolist() == [1.0, 20 / 24, 0.5]
        assert home_visits(t) == [(300, 100), (200, 300)]


class TestUserAverages:
    def test_averaging_across_days(self):
        avgs = user_averages(
            table((0, 0, [(HOME, 24.0)]),
                  (0, 1, [(HOME, 12.0), (CELL_A, 12.0)])),
            ("u1",),
        )
        assert len(avgs) == 1
        u = avgs[0]
        assert u.num_days == 2
        assert u.avg_distinct_ips == pytest.approx(1.5)
        assert u.avg_ip_transitions == pytest.approx(0.5)

    def test_multiple_users_sorted(self):
        # Table user 0 is "b", user 1 "a"; user 2 has no day.
        avgs = user_averages(
            table((0, 0, [(HOME, 24.0)]), (1, 0, [(HOME, 24.0)])),
            ("b", "a", "c"),
        )
        assert [u.user_id for u in avgs] == ["a", "b"]

    def test_dominant_residence_samples(self):
        ip, prefix, asn = dominant_residence_samples(
            table((0, 0, [(HOME, 18.0), (CELL_A, 6.0)]))
        )
        assert ip == [pytest.approx(0.75)]
        assert asn == [pytest.approx(0.75)]


class TestPercentileAndCdf:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_percentile_bounds(self):
        assert percentile([7], 0.0) == 7
        assert percentile([7], 1.0) == 7

    def test_percentile_errors(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_cdf_points(self):
        points = cdf_points([3, 1, 2])
        assert points == [(1, pytest.approx(1 / 3)), (2, pytest.approx(2 / 3)),
                          (3, pytest.approx(1.0))]
