"""Tests for multihomed device timelines, built from segment rows.

Each timeline is an ``AddrsMatrix``; ``changes`` reads its rows back
as ``(hour, frozenset)`` change points through the object reader in
``tests/reference/content.py``.
"""

import numpy as np
import pytest

from repro.mobility import NetworkLocation, segment_table
from repro.mobility.multihoming import build_multihomed_timeline
from repro.net import parse_address, parse_prefix
from tests.reference.content import points as changes


def loc(ip, prefix, asn):
    return NetworkLocation(parse_address(ip), parse_prefix(prefix), asn)


HOME = loc("10.0.0.5", "10.0.0.0/16", 100)
CELL = loc("10.1.0.9", "10.1.0.0/16", 200)
CELL2 = loc("10.1.4.2", "10.1.0.0/16", 200)
WORK = loc("10.2.0.7", "10.2.0.0/16", 300)


def make_rows(*days):
    """One segment table of ``(user, day, specs)`` days, each spec a
    ``(location, hours, net type)`` stay from hour 0."""
    built = []
    for user, day, specs in days:
        rows, cursor = [], 0.0
        for location, duration, net_type in specs:
            site = (location.ip.value, location.prefix, location.asn)
            rows.append((site, cursor, duration, net_type == "cellular"))
            cursor += duration
        built.append((user, day, rows))
    return segment_table(built)


def make_day(specs, day=0):
    return make_rows((0, day, specs))


def sets(*addresses):
    return frozenset(location.ip for location in addresses)


class TestSingleRadio:
    def test_sets_are_singletons(self):
        rows = make_day(
            [(HOME, 8.0, "wifi"), (CELL, 8.0, "cellular"), (HOME, 8.0, "wifi")]
        )
        timeline = build_multihomed_timeline("u1", rows, dual_radio=False)
        assert changes(timeline) == [
            (0.0, sets(HOME)), (8.0, sets(CELL)), (16.0, sets(HOME)),
        ]
        for _, addrs in changes(timeline):
            assert len(addrs) == 1

    def test_events_match_ip_transitions(self):
        rows = make_day(
            [(HOME, 8.0, "wifi"), (CELL, 8.0, "cellular"), (HOME, 8.0, "wifi")]
        )
        timeline = build_multihomed_timeline("u1", rows, dual_radio=False)
        # Two moves: one change point each after the initial set.
        assert timeline.num_events == 2
        assert timeline.name == "u1"
        assert timeline.hours.dtype == np.float64


class TestDualRadio:
    def test_cellular_anchor_joins_wifi_set(self):
        rows = make_day(
            [(CELL, 8.0, "cellular"), (HOME, 1.0, "wifi"),
             (CELL2, 15.0, "cellular")]
        )
        timeline = build_multihomed_timeline(
            "u1", rows, dual_radio=True, cellular_hold_hours=2.0
        )
        # During the WiFi hour the set holds both addresses.
        assert changes(timeline) == [
            (0.0, sets(CELL)), (8.0, sets(HOME, CELL)), (9.0, sets(CELL2)),
        ]

    def test_hold_expires_mid_segment(self):
        rows = make_day([(CELL, 4.0, "cellular"), (HOME, 20.0, "wifi")])
        timeline = build_multihomed_timeline(
            "u1", rows, dual_radio=True, cellular_hold_hours=2.0
        )
        # The expiry is its own change point.
        assert changes(timeline) == [
            (0.0, sets(CELL)), (4.0, sets(HOME, CELL)), (6.0, sets(HOME)),
        ]

    def test_no_anchor_before_first_cellular(self):
        rows = make_day([(HOME, 8.0, "wifi"), (CELL, 16.0, "cellular")])
        timeline = build_multihomed_timeline("u1", rows, dual_radio=True)
        assert changes(timeline) == [(0.0, sets(HOME)), (8.0, sets(CELL))]

    def test_wifi_flap_keeps_best_anchor_constant(self):
        # home -> cell -> work -> cell: during work, the set still
        # holds the latest cellular address.
        rows = make_day(
            [(HOME, 6.0, "wifi"), (CELL, 2.0, "cellular"),
             (WORK, 1.0, "wifi"), (CELL2, 15.0, "cellular")]
        )
        timeline = build_multihomed_timeline(
            "u1", rows, dual_radio=True, cellular_hold_hours=3.0
        )
        assert changes(timeline) == [
            (0.0, sets(HOME)), (6.0, sets(CELL)), (8.0, sets(WORK, CELL)),
            (9.0, sets(CELL2)),
        ]

    def test_multiday_span(self):
        rows = make_rows(
            (0, 0, [(HOME, 24.0, "wifi")]),
            (0, 1, [(CELL, 24.0, "cellular")]),
        )
        timeline = build_multihomed_timeline("u1", rows, dual_radio=True)
        assert changes(timeline) == [(0.0, sets(HOME)), (24.0, sets(CELL))]

    def test_days_taken_in_day_order(self):
        rows = make_rows(
            (0, 1, [(CELL, 24.0, "cellular")]),
            (0, 0, [(HOME, 24.0, "wifi")]),
        )
        timeline = build_multihomed_timeline("u1", rows, dual_radio=True)
        assert changes(timeline) == [(0.0, sets(HOME)), (24.0, sets(CELL))]

    def test_events_have_changes(self):
        rows = make_day(
            [(CELL, 8.0, "cellular"), (HOME, 8.0, "wifi"),
             (CELL2, 8.0, "cellular")]
        )
        timeline = build_multihomed_timeline("u1", rows, dual_radio=True)
        assert changes(timeline) == [
            (0.0, sets(CELL)), (8.0, sets(HOME, CELL)), (10.0, sets(HOME)),
            (16.0, sets(CELL2)),
        ]
        points = changes(timeline)
        for (_, old), (_, new) in zip(points, points[1:]):
            assert old != new


class TestValidation:
    def test_requires_days(self):
        with pytest.raises(ValueError, match="at least one segment"):
            build_multihomed_timeline("u1", make_rows(), dual_radio=True)

    def test_requires_single_user(self):
        rows = make_rows(
            (0, 0, [(HOME, 24.0, "wifi")]),
            (1, 0, [(HOME, 24.0, "wifi")]),
        )
        with pytest.raises(ValueError, match="multiple users"):
            build_multihomed_timeline("u1", rows, dual_radio=True)
