"""Property-based tests: invariants of the behavioural device model.

Hypothesis drives the simulator with arbitrary (valid) profile
parameters; every generated day, as a checked segment table, must
satisfy the structural invariants the statistics layer depends on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import (
    HOURS_PER_DAY,
    AccessNetwork,
    UserClass,
    UserProfile,
    day_stats,
    segment_table,
    simulate_user_day,
)
from repro.net import IPv4Address, IPv4Prefix
from repro.workload import DeviceEventColumns


def simulate_day(profile, day, rng, weekend=False):
    """One simulated day as a checked segment table."""
    rows = simulate_user_day(profile, day, rng, weekend=weekend)
    return segment_table([(0, day, rows)])


def one_day_stats(table):
    """The statistics of a one-day table, one value per column."""
    stats = day_stats(table)
    assert len(stats.user) == 1
    return type(stats)(*(column.tolist()[0] for column in stats))


def wifi(asn, index):
    return AccessNetwork(
        asn=asn, prefixes=[IPv4Prefix((10 << 24) | (index << 16), 16)],
        sticky=True,
    )


def cellular(asn):
    return AccessNetwork(
        asn=asn,
        prefixes=[
            IPv4Prefix((11 << 24) | (i << 16), 16) for i in range(3)
        ],
        sticky=False,
    )


profile_strategy = st.builds(
    UserProfile,
    user_id=st.just("u"),
    user_class=st.sampled_from(list(UserClass)),
    region=st.just("us-west"),
    home=st.one_of(st.none(), st.builds(wifi, st.just(100), st.just(1))),
    work=st.one_of(st.none(), st.builds(wifi, st.just(300), st.just(3))),
    cellular=st.builds(cellular, st.just(200)),
    # Keep prefix <-> ASN consistent (a prefix has exactly one origin
    # AS): venue ASN 400+k always owns prefix index 4+k.
    venues=st.lists(
        st.integers(0, 5).map(lambda k: wifi(400 + k, 4 + k)),
        max_size=3,
    ),
    attach_period_hours=st.floats(min_value=0.3, max_value=6.0),
    activity=st.floats(min_value=0.2, max_value=5.0),
    home_lease_churn=st.floats(min_value=0.0, max_value=1.0),
    venue_alternation=st.floats(min_value=0.0, max_value=0.9),
)


class TestDayInvariants:
    @settings(max_examples=150, deadline=None)
    @given(profile_strategy, st.integers(0, 6), st.booleans(),
           st.integers(0, 2**31))
    def test_day_structurally_valid(self, profile, day, weekend, seed):
        rng = random.Random(seed)
        table = simulate_day(profile, day, rng, weekend=weekend)
        # The segment table's checks enforce contiguity/coverage; check
        # the derived stats invariants on top.
        stats = one_day_stats(table)
        assert stats.distinct_ips >= stats.distinct_prefixes >= (
            stats.distinct_ases
        )
        assert stats.ip_transitions >= stats.prefix_transitions >= (
            stats.as_transitions
        )
        assert stats.ip_transitions >= stats.distinct_ips - 1
        assert 0.0 < stats.dominant_ip_fraction <= 1.0
        assert stats.dominant_as_fraction >= stats.dominant_ip_fraction - 1e-9
        assert abs(sum(table["duration"].tolist()) - HOURS_PER_DAY) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(profile_strategy, st.integers(0, 2**31))
    def test_locations_come_from_profile_networks(self, profile, seed):
        rng = random.Random(seed)
        table = simulate_day(profile, 0, rng)
        allowed = {profile.cellular.asn}
        if profile.home:
            allowed.add(profile.home.asn)
        if profile.work:
            allowed.add(profile.work.asn)
        allowed |= {v.asn for v in profile.venues}
        for ip, net, length, asn in table[["ip", "net", "len", "asn"]].tolist():
            assert asn in allowed
            assert IPv4Prefix(net, length).contains(IPv4Address(ip))

    @settings(max_examples=100, deadline=None)
    @given(profile_strategy, st.integers(0, 2**31))
    def test_same_seed_same_day(self, profile, seed):
        import copy

        day_a = simulate_day(
            copy.deepcopy(profile), 0, random.Random(seed)
        )
        day_b = simulate_day(
            copy.deepcopy(profile), 0, random.Random(seed)
        )
        assert day_a.tolist() == day_b.tolist()

    @settings(max_examples=60, deadline=None)
    @given(profile_strategy, st.integers(0, 2**31))
    def test_transition_count_matches_events(self, profile, seed):
        rng = random.Random(seed)
        table = simulate_day(profile, 0, rng)
        events = DeviceEventColumns.from_segments(table, ("u",))
        assert len(events) == one_day_stats(table).ip_transitions
