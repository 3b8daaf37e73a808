"""Tests for address timelines and their builders.

Timelines are read back as ``IPv4Address`` sets through the object
readers in ``tests/reference/content.py``.
"""

import random

import pytest

from repro.content import (
    AddressTimeline,
    CDNHosting,
    CDNProvider,
    EdgeCluster,
    OriginHosting,
    build_cdn_timeline,
    build_origin_timeline,
    build_timeline,
)
from repro.net import ContentName, parse_address
from tests.reference.content import (
    address_timeline,
    events,
    set_at,
    union_all,
)

NAME = ContentName.from_domain("example.com")


def addrs(*texts):
    return frozenset(parse_address(t) for t in texts)


class TestAddressTimeline:
    def make(self):
        return address_timeline(
            NAME,
            total_hours=48,
            changes=[
                (0, addrs("1.1.1.1")),
                (5, addrs("1.1.1.1", "2.2.2.2")),
                (30, addrs("2.2.2.2")),
            ],
        )

    def test_set_at(self):
        tl = self.make()
        assert set_at(tl, 0) == addrs("1.1.1.1")
        assert set_at(tl, 4) == addrs("1.1.1.1")
        assert set_at(tl, 5) == addrs("1.1.1.1", "2.2.2.2")
        assert set_at(tl, 29) == addrs("1.1.1.1", "2.2.2.2")
        assert set_at(tl, 47) == addrs("2.2.2.2")

    def test_set_at_out_of_range(self):
        tl = self.make()
        with pytest.raises(ValueError):
            set_at(tl, 48)
        with pytest.raises(ValueError):
            set_at(tl, -1)

    def test_events(self):
        tl = self.make()
        changes = events(tl)
        assert len(changes) == 2
        assert changes[0].hour == 5
        assert changes[0].added() == addrs("2.2.2.2")
        assert changes[0].removed() == frozenset()
        assert changes[1].removed() == addrs("1.1.1.1")

    def test_daily_event_counts(self):
        tl = self.make()
        assert tl.daily_event_counts() == [1, 1]

    def test_union_all(self):
        assert union_all(self.make()) == addrs("1.1.1.1", "2.2.2.2")

    def test_num_changes(self):
        assert self.make().num_changes() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            address_timeline(NAME, 10, [])
        with pytest.raises(ValueError):
            address_timeline(NAME, 10, [(1, addrs("1.1.1.1"))])
        with pytest.raises(ValueError):
            address_timeline(
                NAME, 10, [(0, addrs("1.1.1.1")), (12, addrs("2.2.2.2"))]
            )
        with pytest.raises(ValueError):
            address_timeline(
                NAME,
                10,
                [(0, addrs("1.1.1.1")), (5, addrs("2.2.2.2")),
                 (5, addrs("3.3.3.3"))],
            )
        with pytest.raises(ValueError):
            address_timeline(NAME, 0, [(0, addrs("1.1.1.1"))])


class TestOriginTimelines:
    def test_static_origin_never_changes(self):
        model = OriginHosting(
            base=tuple(addrs("5.5.5.5", "5.5.5.6")),
            lb_pool=(),
            lb_active=0,
            lb_rotation_prob=0.0,
        )
        tl = build_origin_timeline(NAME, model, 24 * 21, random.Random(1))
        assert tl.num_changes() == 0
        assert set_at(tl, 100) == addrs("5.5.5.5", "5.5.5.6")

    def test_lb_rotation_produces_events_within_pool(self):
        pool = tuple(parse_address(f"7.7.7.{i}") for i in range(1, 7))
        model = OriginHosting(
            base=tuple(addrs("5.5.5.5")),
            lb_pool=pool,
            lb_active=2,
            lb_rotation_prob=0.2,
        )
        tl = build_origin_timeline(NAME, model, 24 * 7, random.Random(2))
        assert tl.num_changes() > 5
        union = union_all(tl)
        assert parse_address("5.5.5.5") in union
        assert union <= addrs("5.5.5.5") | frozenset(pool)
        # Base address always present.
        for h in range(0, 24 * 7, 13):
            assert parse_address("5.5.5.5") in set_at(tl, h)

    def test_deterministic_given_rng(self):
        pool = tuple(parse_address(f"7.7.7.{i}") for i in range(1, 7))
        model = OriginHosting(
            base=tuple(addrs("5.5.5.5")),
            lb_pool=pool,
            lb_active=2,
            lb_rotation_prob=0.3,
        )
        t1 = build_origin_timeline(NAME, model, 100, random.Random(9))
        t2 = build_origin_timeline(NAME, model, 100, random.Random(9))
        assert [set_at(t1, h) for h in range(100)] == [
            set_at(t2, h) for h in range(100)
        ]


def make_cdn_model(rotation=0.5, remap=0.0, n_core=2, n_over=2, pool_size=6):
    clusters = []
    for i, region in enumerate(
        ["us-west", "us-east", "eu-west", "africa"][: n_core + n_over]
    ):
        pool = tuple(
            parse_address(f"9.{i}.0.{j}") for j in range(1, pool_size + 1)
        )
        clusters.append(EdgeCluster(region=region, asn=100 + i, pool=pool))
    provider = CDNProvider(name="cdn-test", clusters=clusters)
    return CDNHosting(
        provider=provider,
        core_clusters=tuple(clusters[:n_core]),
        overflow_clusters=tuple(clusters[n_core:]),
        addrs_per_cluster=2,
        rotation_prob=rotation,
        remap_prob=remap,
    )


class TestCdnTimelines:
    def test_rotation_changes_sets(self):
        model = make_cdn_model(rotation=1.0)
        tl = build_cdn_timeline(NAME, model, 24 * 3, random.Random(3))
        assert tl.num_changes() > 10

    def test_core_cluster_always_represented(self):
        model = make_cdn_model(rotation=0.8, remap=0.05)
        tl = build_cdn_timeline(NAME, model, 24 * 7, random.Random(4))
        core_asn_pools = [frozenset(c.pool) for c in model.core_clusters]
        for h in range(0, 24 * 7, 7):
            current = set_at(tl, h)
            for pool in core_asn_pools:
                assert current & pool, "core cluster dropped out"

    def test_coverage_hides_uncovered_regions(self):
        model = make_cdn_model(rotation=0.5, n_core=2, n_over=2)
        coverage = {"us-west", "us-east", "eu-west"}  # africa invisible
        tl = build_cdn_timeline(
            NAME, model, 24 * 3, random.Random(5), coverage=coverage
        )
        africa_pool = frozenset(model.overflow_clusters[-1].pool)
        assert model.overflow_clusters[-1].region == "africa"
        assert not (union_all(tl) & africa_pool)

    def test_no_rotation_no_remap_is_static(self):
        model = make_cdn_model(rotation=0.0, remap=0.0, n_over=0)
        tl = build_cdn_timeline(NAME, model, 24 * 7, random.Random(6))
        assert tl.num_changes() == 0

    def test_remap_toggles_overflow(self):
        model = make_cdn_model(rotation=0.0, remap=0.2)
        tl = build_cdn_timeline(NAME, model, 24 * 7, random.Random(7))
        assert tl.num_changes() > 3

    def test_at_most_one_event_per_hour(self):
        model = make_cdn_model(rotation=3.0, remap=0.3)
        tl = build_cdn_timeline(NAME, model, 24 * 2, random.Random(8))
        hours = [e.hour for e in events(tl)]
        assert len(hours) == len(set(hours))
        assert max(tl.daily_event_counts()) <= 24


class TestDispatch:
    def test_dispatch_origin(self):
        model = OriginHosting(
            base=tuple(addrs("5.5.5.5")), lb_pool=(), lb_active=0,
            lb_rotation_prob=0.0,
        )
        tl = build_timeline(NAME, model, 48, random.Random(1))
        assert tl.num_changes() == 0

    def test_dispatch_cdn(self):
        tl = build_timeline(NAME, make_cdn_model(), 48, random.Random(1))
        assert isinstance(tl, AddressTimeline)

    def test_dispatch_unknown_type(self):
        with pytest.raises(TypeError):
            build_timeline(NAME, object(), 48, random.Random(1))
