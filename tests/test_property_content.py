"""Property-based tests: content timeline and hosting invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content import (
    CDNHosting,
    CDNProvider,
    EdgeCluster,
    OriginHosting,
    build_cdn_timeline,
    build_origin_timeline,
)
from repro.net import ContentName, IPv4Address
from tests.reference.content import (
    address_timeline,
    events,
    set_at,
    union_all,
)

NAME = ContentName.from_domain("prop.example.com")

address = st.integers(min_value=1, max_value=0xFFFFFFFE).map(IPv4Address)
address_set = st.frozensets(address, min_size=1, max_size=6)


@st.composite
def timeline_strategy(draw):
    hours = draw(st.integers(min_value=2, max_value=200))
    n_changes = draw(st.integers(min_value=0, max_value=10))
    change_hours = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=hours - 1),
                max_size=n_changes,
            )
        )
    )
    changes = [(0, draw(address_set))]
    for h in change_hours:
        # Force a genuinely different set so every entry is a change.
        prev = changes[-1][1]
        new = draw(address_set.filter(lambda s: s != prev))
        changes.append((h, new))
    return address_timeline(NAME, total_hours=hours, changes=changes)


class TestTimelineProperties:
    @settings(max_examples=150)
    @given(timeline_strategy())
    def test_events_match_changes(self, timeline):
        changes = events(timeline)
        assert len(changes) == timeline.num_changes()
        for event in changes:
            assert event.old_addrs != event.new_addrs
            assert set_at(timeline, event.hour) == event.new_addrs
            assert set_at(timeline, event.hour - 1) == event.old_addrs

    @settings(max_examples=100)
    @given(timeline_strategy())
    def test_set_at_piecewise_constant(self, timeline):
        change_hours = {e.hour for e in events(timeline)}
        previous = set_at(timeline, 0)
        for hour in range(1, timeline.total_hours):
            current = set_at(timeline, hour)
            if hour in change_hours:
                assert current != previous
            else:
                assert current == previous
            previous = current

    @settings(max_examples=100)
    @given(timeline_strategy())
    def test_daily_counts_sum_to_events(self, timeline):
        counts = timeline.daily_event_counts()
        assert sum(counts) == timeline.num_changes()
        assert all(c >= 0 for c in counts)

    @settings(max_examples=100)
    @given(timeline_strategy())
    def test_union_covers_every_instant(self, timeline):
        union = union_all(timeline)
        for hour in range(0, timeline.total_hours, 7):
            assert set_at(timeline, hour) <= union


class TestBuilderProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),   # base size
        st.floats(min_value=0.0, max_value=0.5),  # rotation prob
        st.integers(min_value=24, max_value=24 * 14),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_origin_base_always_served(self, base_size, rotation, hours, seed):
        rng = random.Random(seed)
        base = tuple(
            IPv4Address((50 << 24) | i) for i in range(1, base_size + 1)
        )
        pool = tuple(IPv4Address((60 << 24) | i) for i in range(1, 7))
        model = OriginHosting(
            base=base,
            lb_pool=pool if rotation > 0 else (),
            lb_active=2 if rotation > 0 else 0,
            lb_rotation_prob=rotation,
        )
        timeline = build_origin_timeline(NAME, model, hours, rng)
        assert timeline.total_hours == hours
        for hour in range(0, hours, 13):
            current = set_at(timeline, hour)
            assert set(base) <= current
            assert current <= set(base) | set(pool)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.1),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_cdn_anchor_always_served(self, rotation, remap, seed):
        rng = random.Random(seed)
        clusters = [
            EdgeCluster(
                region=region,
                asn=100 + i,
                pool=tuple(
                    IPv4Address(((70 + i) << 24) | j) for j in range(1, 8)
                ),
            )
            for i, region in enumerate(["us-west", "us-east", "eu-west"])
        ]
        model = CDNHosting(
            provider=CDNProvider(name="p", clusters=clusters),
            core_clusters=(clusters[0], clusters[1]),
            overflow_clusters=(clusters[2],),
            addrs_per_cluster=2,
            rotation_prob=rotation,
            remap_prob=remap,
            core_remap_prob=0.0,
        )
        timeline = build_cdn_timeline(NAME, model, 24 * 5, rng)
        anchor_pool = set(clusters[0].pool)
        all_pools = set().union(*(c.pool for c in clusters))
        for hour in range(0, 24 * 5, 11):
            current = set_at(timeline, hour)
            assert current & anchor_pool  # the anchor never disappears
            assert current <= all_pools
