"""Object-form address sets: the columnar timelines' reference.

:func:`repro.content.build_cdn_timeline` and
:func:`repro.content.build_origin_timeline` replay a hosting model over
address bitmasks and store the result as an ``AddrsMatrix`` of address
values, the one form ``src/`` keeps. This module is the object form
they replaced, written the plain way:

* the builders: the CDN replay rebuilds every visible cluster's address
  set after each pre-drawn event and merges same-hour changes into one
  change point, and the origin replay rebuilds its set each hour
  something moved. Both make the same random draws in the same order
  as ``src/``, and return the ``(hour, frozenset)`` change points the
  bitmask builders must reproduce;
* :func:`from_changes`, the matrix built from such change points one
  address at a time, which ``AddrsMatrix.from_rows`` must equal;
* the readers of a timeline as ``IPv4Address`` sets: :func:`set_at`,
  :func:`events` (as :class:`ContentMobilityEvent` records),
  :func:`change_points` and :func:`union_all`, with
  :func:`address_timeline` to build a timeline from change points.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.content import AddressTimeline, CDNHosting, OriginHosting
from repro.content.timeline import HOURS_PER_DAY
from repro.net import ContentName, IPv4Address
from repro.topology import ASTopology, Tier
from repro.workload import AddrsMatrix

__all__ = [
    "cdn_change_points",
    "origin_change_points",
    "from_changes",
    "address_timeline",
    "ContentMobilityEvent",
    "points",
    "change_points",
    "set_at",
    "events",
    "union_all",
]

ChangePoints = List[Tuple[int, FrozenSet[IPv4Address]]]


def from_changes(name, changes) -> AddrsMatrix:
    """The matrix of ``(hour, address set)`` change points.

    ``hours`` keeps the points' number type: integers for a content
    timeline's whole hours, float64 for a device's fractional ones.
    """
    addrs = sorted(frozenset().union(*(s for _, s in changes)))
    index = {addr: j for j, addr in enumerate(addrs)}
    hours = np.array([h for h, _ in changes])
    membership = np.zeros((len(changes), len(addrs)), dtype=bool)
    for i, (_, addr_set) in enumerate(changes):
        for addr in addr_set:
            membership[i, index[addr]] = True
    values = np.array([a.value for a in addrs], dtype=np.int64)
    return AddrsMatrix(name, hours, values, membership)


def address_timeline(
    name: ContentName, total_hours: int, changes
) -> AddressTimeline:
    """The timeline of ``(hour, address set)`` change points."""
    return AddressTimeline(total_hours, from_changes(name, changes))


@dataclass(frozen=True)
class ContentMobilityEvent:
    """A change of ``Addrs(d, t)`` between consecutive hours."""

    name: ContentName
    hour: int
    old_addrs: FrozenSet[IPv4Address]
    new_addrs: FrozenSet[IPv4Address]

    def added(self) -> FrozenSet[IPv4Address]:
        """Addresses that appeared."""
        return self.new_addrs - self.old_addrs

    def removed(self) -> FrozenSet[IPv4Address]:
        """Addresses that disappeared."""
        return self.old_addrs - self.new_addrs


def points(matrix: AddrsMatrix) -> list:
    """A matrix's rows as ``(hour, frozenset)`` change points."""
    addrs = [IPv4Address(value) for value in matrix.addrs.tolist()]
    return [
        (hour, frozenset(a for a, held in zip(addrs, row) if held))
        for hour, row in zip(matrix.hours.tolist(),
                             matrix.membership.tolist())
    ]


def change_points(timeline: AddressTimeline) -> ChangePoints:
    """All change points as ``(hour, set)`` pairs, in time order.

    The first pair is the initial set at hour 0; each subsequent pair
    corresponds to one mobility event.
    """
    return points(timeline.as_matrix())


def set_at(timeline: AddressTimeline, hour: int) -> FrozenSet[IPv4Address]:
    """``Addrs(d, hour)``."""
    if not 0 <= hour < timeline.total_hours:
        raise ValueError(
            f"hour {hour} outside 0..{timeline.total_hours - 1}"
        )
    changes = change_points(timeline)
    row = bisect.bisect_right([h for h, _ in changes], hour) - 1
    return changes[row][1]


def events(timeline: AddressTimeline) -> List[ContentMobilityEvent]:
    """All mobility events, in time order."""
    changes = change_points(timeline)
    return [
        ContentMobilityEvent(
            name=timeline.name, hour=hour, old_addrs=old, new_addrs=new
        )
        for (_, old), (hour, new) in zip(changes, changes[1:])
    ]


def union_all(timeline: AddressTimeline) -> FrozenSet[IPv4Address]:
    """Every address ever observed for the timeline's name."""
    return frozenset(
        IPv4Address(value) for value in timeline.as_matrix().addrs.tolist()
    )


def _geometric_next(rng: random.Random, prob: float) -> int:
    """Hours until the next success of an hourly Bernoulli(prob)."""
    if prob >= 1.0:
        return 1
    denominator = math.log(1.0 - prob) if prob > 0.0 else 0.0
    if denominator == 0.0:
        return 1 << 30
    u = rng.random()
    return 1 + int(math.log(max(u, 1e-12)) / denominator)


def _relocate(
    rng: random.Random, topology: ASTopology, count: int
) -> List[IPv4Address]:
    """A fresh origin site in a random stub AS (provider switch)."""
    stubs = [a for a, n in topology.ases.items() if n.tier is Tier.STUB]
    asn = rng.choice(sorted(stubs))
    prefixes = topology.ases[asn].prefixes
    out = []
    for _ in range(count):
        prefix = rng.choice(prefixes)
        host = rng.randrange(1, min(prefix.num_addresses(), 1 << 16))
        out.append(prefix.address_at(host))
    return out


def origin_change_points(
    model: OriginHosting,
    hours: int,
    rng: random.Random,
    topology: Optional[ASTopology] = None,
) -> ChangePoints:
    """An origin-hosted name's change points: LB rotation + relocation."""
    base = tuple(model.base)
    window = rng.randrange(len(model.lb_pool)) if model.lb_pool else 0

    def active_set() -> FrozenSet[IPv4Address]:
        if not model.lb_pool or model.lb_active == 0:
            return frozenset(base)
        pool = model.lb_pool
        chosen = {
            pool[(window + i) % len(pool)] for i in range(model.lb_active)
        }
        return frozenset(base) | chosen

    changes: ChangePoints = [(0, active_set())]
    for hour in range(1, hours):
        changed = False
        if (
            hour % HOURS_PER_DAY == 0
            and topology is not None
            and rng.random() < model.relocation_prob_per_day
        ):
            base = tuple(_relocate(rng, topology, len(base)))
            changed = True
        if model.lb_pool and rng.random() < model.lb_rotation_prob:
            window = (window + 1) % len(model.lb_pool)
            changed = True
        if changed:
            new_set = active_set()
            if new_set != changes[-1][1]:
                changes.append((hour, new_set))
    return changes


def cdn_change_points(
    model: CDNHosting,
    hours: int,
    rng: random.Random,
    coverage: Optional[Set[str]] = None,
) -> ChangePoints:
    """A CDN-delegated name's change points, rebuilt after every event."""
    clusters = list(model.core_clusters) + list(model.overflow_clusters)
    n_core = len(model.core_clusters)
    visible = [
        coverage is None or c.region in coverage for c in clusters
    ]
    window = [rng.randrange(len(c.pool)) for c in clusters]
    active = [i < n_core or rng.random() < 0.5 for i in range(len(clusters))]

    per_cluster_rot = model.rotation_prob / max(len(clusters), 1)
    events: List[Tuple[int, str, int]] = []  # (hour, kind, cluster index)
    for i in range(len(clusters)):
        h = _geometric_next(rng, per_cluster_rot)
        while h < hours:
            events.append((h, "rot", i))
            h += _geometric_next(rng, per_cluster_rot)
        if i >= n_core:
            toggle_prob = model.remap_prob
        elif i > 0:
            toggle_prob = model.core_remap_prob
        else:
            toggle_prob = 0.0
        h = _geometric_next(rng, toggle_prob)
        while h < hours:
            events.append((h, "map", i))
            h += _geometric_next(rng, toggle_prob)
    events.sort()

    def current_set() -> FrozenSet[IPv4Address]:
        out: Set[IPv4Address] = set()
        for i, cluster in enumerate(clusters):
            if not active[i] or not visible[i]:
                continue
            pool = cluster.pool
            k = min(model.addrs_per_cluster, len(pool))
            out |= {pool[(window[i] + j) % len(pool)] for j in range(k)}
        return frozenset(out)

    changes: ChangePoints = [(0, current_set())]
    for hour, kind, i in events:
        if kind == "rot":
            window[i] = (window[i] + 1) % len(clusters[i].pool)
        else:
            active[i] = not active[i]
        new_set = current_set()
        if new_set != changes[-1][1] and hour > changes[-1][0]:
            changes.append((hour, new_set))
        elif new_set != changes[-1][1]:
            # Same hour as the previous change: merge, and drop the
            # entry entirely if the merged set undoes the change.
            changes[-1] = (changes[-1][0], new_set)
            if len(changes) >= 2 and changes[-2][1] == new_set:
                changes.pop()
    return changes
