"""The bitmask timeline builders against the per-event reference.

``build_cdn_timeline`` and ``build_origin_timeline`` replay a hosting
model over address bitmasks, the CDN one hour at a time, and store the
timeline as its ``AddrsMatrix``. ``tests/reference/content.py`` keeps
the builders they replaced; every random model here must give the same
change points, the same matrix and the same random draws.
"""

import functools
import random

import numpy as np
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
from repro.topology import ASTopologyConfig, generate_as_topology
from tests.reference.content import (
    cdn_change_points,
    change_points,
    from_changes,
    origin_change_points,
)

NAME = ContentName.from_domain("replay.example.com")
REGIONS = ("us-west", "us-east", "eu-west", "africa")

#: A small address universe, so pools overlap across clusters and an
#: origin's LB pool overlaps its base.
address = st.integers(min_value=1, max_value=12).map(
    lambda i: IPv4Address((10 << 24) | i)
)


@functools.lru_cache(maxsize=None)
def small_topology():
    return generate_as_topology(
        ASTopologyConfig(t2_per_region=1, stubs_per_region=2)
    )


def assert_parity(timeline, reference):
    assert change_points(timeline) == reference
    expected = from_changes(NAME, reference)
    matrix = timeline.as_matrix()
    assert matrix.hours.dtype == expected.hours.dtype
    assert matrix.hours.tolist() == expected.hours.tolist()
    assert matrix.addrs.dtype == expected.addrs.dtype == np.int64
    assert matrix.addrs.tolist() == expected.addrs.tolist()
    assert matrix.membership.dtype == expected.membership.dtype
    assert np.array_equal(matrix.membership, expected.membership)


@st.composite
def cdn_models(draw):
    def cluster(i):
        # Pools of one, pools shorter than addrs_per_cluster, and pools
        # sharing addresses with other clusters.
        pool = draw(st.lists(address, min_size=1, max_size=6))
        return EdgeCluster(
            region=draw(st.sampled_from(REGIONS)), asn=100 + i,
            pool=tuple(pool),
        )

    n_core = draw(st.integers(min_value=1, max_value=3))
    n_over = draw(st.integers(min_value=0, max_value=3))
    clusters = [cluster(i) for i in range(n_core + n_over)]
    return CDNHosting(
        provider=CDNProvider(name="cdn-prop", clusters=clusters),
        core_clusters=tuple(clusters[:n_core]),
        overflow_clusters=tuple(clusters[n_core:]),
        addrs_per_cluster=draw(st.integers(min_value=1, max_value=4)),
        # Up to 3 rotations an hour and remaps up to 0.3, so several
        # events share an hour and some undo each other.
        rotation_prob=draw(st.floats(min_value=0.0, max_value=3.0)),
        remap_prob=draw(st.floats(min_value=0.0, max_value=0.3)),
        core_remap_prob=draw(st.floats(min_value=0.0, max_value=0.3)),
    )


@st.composite
def origin_models(draw):
    base = draw(st.lists(address, min_size=1, max_size=3))
    pool = draw(st.lists(address, max_size=6))
    return OriginHosting(
        base=tuple(base),
        lb_pool=tuple(pool),
        lb_active=draw(st.integers(min_value=0, max_value=len(pool))),
        lb_rotation_prob=draw(st.floats(min_value=0.0, max_value=0.6)),
        relocation_prob_per_day=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


#: None sees every region; a subset can hide some clusters or all of
#: them, the anchor included.
coverages = st.none() | st.sets(st.sampled_from(REGIONS))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestCdnReplay:
    @settings(max_examples=300, deadline=None)
    @given(
        cdn_models(), st.integers(min_value=1, max_value=24 * 4), coverages,
        seeds,
    )
    def test_matches_per_event_reference(self, model, hours, coverage, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        timeline = build_cdn_timeline(
            NAME, model, hours, rng, coverage=coverage
        )
        reference = cdn_change_points(
            model, hours, ref_rng, coverage=coverage
        )
        assert_parity(timeline, reference)
        assert rng.getstate() == ref_rng.getstate()


class TestOriginReplay:
    @settings(max_examples=150, deadline=None)
    @given(
        origin_models(), st.integers(min_value=1, max_value=24 * 6),
        st.booleans(), seeds,
    )
    def test_matches_per_hour_reference(self, model, hours, relocates, seed):
        topology = small_topology() if relocates else None
        rng, ref_rng = random.Random(seed), random.Random(seed)
        timeline = build_origin_timeline(
            NAME, model, hours, rng, topology=topology
        )
        reference = origin_change_points(
            model, hours, ref_rng, topology=topology
        )
        assert_parity(timeline, reference)
        assert rng.getstate() == ref_rng.getstate()

