"""Tests for the behavioural device model.

The simulator emits rows; these tests read each attach as a
``NetworkLocation`` and each day as its checked segment table.
"""

import random

import pytest

from repro.mobility import (
    AccessNetwork,
    HOURS_PER_DAY,
    NetworkLocation,
    UserClass,
    UserProfile,
    segment_table,
    simulate_user_day,
)
from repro.net import IPv4Address, parse_prefix


def attach(net, rng):
    """One attach of ``net``, as a ``NetworkLocation``."""
    ip, prefix, asn = net.attach(rng)
    return NetworkLocation(IPv4Address(ip), prefix, asn)


def simulate_day(profile, day, rng, weekend=False):
    """One simulated day as a checked segment table."""
    rows = simulate_user_day(profile, day, rng, weekend=weekend)
    return segment_table([(0, day, rows)])


def hours_in(table, asn):
    """Hours the day spends in ``asn``."""
    return sum(table["duration"][table["asn"] == asn].tolist())


def wifi_net(asn=100, prefix="10.0.0.0/16"):
    return AccessNetwork(asn=asn, prefixes=[parse_prefix(prefix)], sticky=True)


def cell_net(asn=200):
    prefixes = [parse_prefix("10.8.0.0/16"), parse_prefix("10.9.0.0/16")]
    return AccessNetwork(asn=asn, prefixes=prefixes, sticky=False)


def profile(cls, **kwargs):
    defaults = dict(
        user_id="u0",
        user_class=cls,
        region="us-west",
        home=wifi_net(),
        work=wifi_net(asn=300, prefix="10.3.0.0/16"),
        cellular=cell_net(),
        venues=[wifi_net(asn=400, prefix="10.4.0.0/16")],
    )
    defaults.update(kwargs)
    return UserProfile(**defaults)


class TestAccessNetwork:
    def test_requires_prefixes(self):
        with pytest.raises(ValueError):
            AccessNetwork(asn=1, prefixes=[], sticky=True)

    def test_sticky_lease_stable(self):
        net = wifi_net()
        rng = random.Random(1)
        first = attach(net, rng)
        for _ in range(10):
            assert attach(net, rng) == first

    def test_renew_lease_changes_address(self):
        net = wifi_net()
        rng = random.Random(1)
        first = attach(net, rng)
        net.renew_lease(rng)
        second = attach(net, rng)
        assert first != second  # astronomically unlikely to collide

    def test_cellular_attach_churns_ips(self):
        net = cell_net()
        rng = random.Random(2)
        ips = {attach(net, rng).ip for _ in range(20)}
        assert len(ips) > 10

    def test_cellular_prefix_stickiness(self):
        net = cell_net()
        rng = random.Random(3)
        locs = [attach(net, rng) for _ in range(50)]
        same = sum(
            1 for a, b in zip(locs, locs[1:]) if a.prefix == b.prefix
        )
        # With stickiness 0.75 most consecutive attaches share a prefix.
        assert same / 49 > 0.6

    def test_attach_within_owned_space(self):
        net = cell_net()
        rng = random.Random(4)
        for _ in range(20):
            location = attach(net, rng)
            assert location.asn == 200
            assert location.prefix in net.prefixes
            assert location.prefix.contains(location.ip)


class TestSimulatedDays:
    @pytest.mark.parametrize("cls", list(UserClass))
    def test_day_covers_24h(self, cls):
        p = profile(cls, home=None if cls is UserClass.CELLULAR_ONLY else wifi_net())
        rng = random.Random(5)
        for day in range(10):
            ud = simulate_day(p, day, rng)
            total = sum(ud["duration"].tolist())
            assert total == pytest.approx(HOURS_PER_DAY)

    def test_homebody_mostly_home(self):
        p = profile(UserClass.WIFI_HOMEBODY)
        rng = random.Random(6)
        home_asn = p.home.asn
        fractions = []
        for day in range(30):
            ud = simulate_day(p, day, rng)
            fractions.append(hours_in(ud, home_asn) / HOURS_PER_DAY)
        assert sum(fractions) / len(fractions) > 0.8

    def test_cellular_commuter_day_shape(self):
        p = profile(UserClass.CELLULAR_COMMUTER)
        rng = random.Random(7)
        ud = simulate_day(p, 0, rng, weekend=False)
        cellular = ud["cellular"].tolist()
        assert cellular[0] is False
        assert cellular[-1] is False
        assert True in cellular

    def test_commuter_weekend_suppresses_commute(self):
        p = profile(UserClass.WIFI_COMMUTER)
        rng = random.Random(8)
        work_asn = p.work.asn
        weekend_work_hours = 0.0
        for day in range(20):
            ud = simulate_day(p, day, rng, weekend=True)
            weekend_work_hours += hours_in(ud, work_asn)
        assert weekend_work_hours == 0.0

    def test_wifi_commuter_visits_three_ases(self):
        p = profile(UserClass.WIFI_COMMUTER)
        rng = random.Random(9)
        seen = set()
        for day in range(10):
            ud = simulate_day(p, day, rng, weekend=False)
            seen |= set(ud["asn"].tolist())
        assert {p.home.asn, p.work.asn, p.cellular.asn} <= seen

    def test_nomad_flaps_heavily(self):
        p = profile(UserClass.NOMAD, attach_period_hours=0.8, activity=1.5)
        rng = random.Random(10)
        ud = simulate_day(p, 0, rng)
        assert len(set(ud["ip"].tolist())) >= 8

    def test_cellular_only_never_uses_home(self):
        p = profile(UserClass.CELLULAR_ONLY, home=None, venues=[])
        rng = random.Random(11)
        for day in range(5):
            ud = simulate_day(p, day, rng)
            assert set(ud["asn"].tolist()) == {p.cellular.asn}

    def test_home_lease_churn(self):
        p = profile(UserClass.WIFI_HOMEBODY, home_lease_churn=1.0)
        rng = random.Random(12)
        ips = set()
        for day in range(8):
            ud = simulate_day(p, day, rng)
            ips |= set(ud["ip"][ud["asn"] == p.home.asn].tolist())
        assert len(ips) >= 4  # fresh home address nearly every day

    def test_deterministic_given_seed(self):
        p1 = profile(UserClass.CELLULAR_COMMUTER)
        p2 = profile(UserClass.CELLULAR_COMMUTER)
        d1 = simulate_day(p1, 0, random.Random(13))
        d2 = simulate_day(p2, 0, random.Random(13))
        assert d1.tolist() == d2.tolist()
