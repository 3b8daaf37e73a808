"""Per-domain address timelines (§3.3, §7.1).

``Addrs(d, t)`` — the set of all IP addresses a domain resolves to at
time ``t``, merged across all vantage points — is the object the
paper's content methodology is built on. A *mobility event* is a change
in that set between consecutive measurement hours.

:class:`AddressTimeline` stores the set at its change points as an
:class:`~repro.workload.AddrsMatrix` — one row per change point over
the address values ever observed — which is both compact and the form
the content evaluators reduce. Builders turn a hosting model into a
timeline using one seeded RNG per name, honouring vantage *coverage*:
addresses served only from regions with no vantage point (the paper
had no PlanetLab node in Africa) are never observed. They replay the
model over address bitmasks, one bit per distinct address value.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from functools import reduce
from operator import or_
from typing import Dict, List, Optional, Set, Tuple

from ..net import ContentName, IPv4Address
from ..topology import ASTopology, Tier
from ..workload import AddrsColumns, AddrsMatrix
from .hosting import CDNHosting, OriginHosting

__all__ = [
    "AddressTimeline",
    "build_origin_timeline",
    "build_cdn_timeline",
    "build_timeline",
    "HOURS_PER_DAY",
]

HOURS_PER_DAY = 24


class AddressTimeline:
    """``Addrs(d, t)`` for one name over a measurement period.

    The change points are ``matrix``'s rows: row 0 at hour 0, each
    later row one mobility event, the last standing to
    ``total_hours``.
    """

    def __init__(self, total_hours: int, matrix: AddrsMatrix):
        _check_change_hours(total_hours, matrix.hours.tolist())
        self.name = matrix.name
        self.total_hours = total_hours
        self._matrix = matrix

    def num_changes(self) -> int:
        """Number of mobility events over the whole period."""
        return self._matrix.num_events

    def daily_event_counts(self) -> List[int]:
        """Mobility events per day (paper Fig. 11a)."""
        days = max(1, self.total_hours // HOURS_PER_DAY)
        counts = [0] * days
        for h in self._matrix.hours[1:].tolist():
            day = min(h // HOURS_PER_DAY, days - 1)
            counts[day] += 1
        return counts

    def as_matrix(self) -> AddrsMatrix:
        """This timeline as a columnar membership matrix (as stored)."""
        return self._matrix


def _check_change_hours(total_hours: int, hours: List[int]) -> None:
    """Reject change hours that do not form a timeline's change points."""
    if total_hours <= 0:
        raise ValueError("total_hours must be positive")
    if not hours or hours[0] != 0:
        raise ValueError("timeline must start with a change at hour 0")
    if hours != sorted(hours) or len(set(hours)) != len(hours):
        raise ValueError("change hours must be strictly increasing")
    if hours[-1] >= total_hours:
        raise ValueError("change hour beyond the measurement period")


def _geometric_next(rng: random.Random, prob: float) -> int:
    """Hours until the next success of an hourly Bernoulli(prob)."""
    if prob >= 1.0:
        return 1
    denominator = math.log(1.0 - prob) if prob > 0.0 else 0.0
    if denominator == 0.0:
        # prob == 0, or so small that log1p underflows: never fires.
        return 1 << 30
    u = rng.random()
    return 1 + int(math.log(max(u, 1e-12)) / denominator)


def build_origin_timeline(
    name: ContentName,
    model: OriginHosting,
    hours: int,
    rng: random.Random,
    topology: Optional[ASTopology] = None,
) -> AddressTimeline:
    """Simulate an origin-hosted name: LB rotation + rare relocation."""
    columns = AddrsColumns()
    base = reduce(or_, columns.bits([a.value for a in model.base]), 0)
    pool = columns.bits([a.value for a in model.lb_pool])
    window = rng.randrange(len(pool)) if pool else 0

    def active_row() -> int:
        row = base
        for i in range(model.lb_active):
            row |= pool[(window + i) % len(pool)]
        return row

    change_hours, rows = [0], [active_row()]
    for hour in range(1, hours):
        changed = False
        if (
            hour % HOURS_PER_DAY == 0
            and topology is not None
            and rng.random() < model.relocation_prob_per_day
        ):
            relocated = _relocate(rng, topology, len(model.base))
            base = reduce(or_, columns.bits([a.value for a in relocated]), 0)
            changed = True
        if pool and rng.random() < model.lb_rotation_prob:
            window = (window + 1) % len(pool)
            changed = True
        if changed:
            row = active_row()
            if row != rows[-1]:
                change_hours.append(hour)
                rows.append(row)
    matrix = AddrsMatrix.from_rows(name, change_hours, columns.values, rows)
    return AddressTimeline(hours, matrix)


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


def build_cdn_timeline(
    name: ContentName,
    model: CDNHosting,
    hours: int,
    rng: random.Random,
    coverage: Optional[Set[str]] = None,
) -> AddressTimeline:
    """Simulate a CDN-delegated name.

    Core clusters are always active; overflow clusters toggle with the
    mapping-churn probability; each active cluster serves ``k``
    addresses out of its pool, advancing its window on rotation.
    Clusters in regions outside ``coverage`` are invisible (they exist
    but no vantage point ever resolves against them).
    """
    clusters = list(model.core_clusters) + list(model.overflow_clusters)
    n_core = len(model.core_clusters)
    visible = [
        coverage is None or c.region in coverage for c in clusters
    ]
    window = [rng.randrange(len(c.pool)) for c in clusters]
    active = [i < n_core or rng.random() < 0.5 for i in range(len(clusters))]

    # Pre-draw change times per cluster: rotations and (for overflow)
    # mapping toggles, as geometric gap sequences, grouped by hour.
    per_cluster_rot = model.rotation_prob / max(len(clusters), 1)
    # hour -> [(cluster index, rotation rather than toggle)]
    moves: Dict[int, List[Tuple[int, bool]]] = defaultdict(list)
    for i in range(len(clusters)):
        h = _geometric_next(rng, per_cluster_rot)
        while h < hours:
            moves[h].append((i, True))
            h += _geometric_next(rng, per_cluster_rot)
        if i >= n_core:
            toggle_prob = model.remap_prob
        elif i > 0:
            # Non-anchor core clusters drop out only rarely; the anchor
            # (index 0) never does.
            toggle_prob = model.core_remap_prob
        else:
            toggle_prob = 0.0
        h = _geometric_next(rng, toggle_prob)
        while h < hours:
            moves[h].append((i, False))
            h += _geometric_next(rng, toggle_prob)

    # spans[i][w]: the bits cluster i serves with its window at w, none
    # when it is invisible.
    columns = AddrsColumns()
    spans = []
    for i, cluster in enumerate(clusters):
        if visible[i]:
            pool = columns.bits([a.value for a in cluster.pool])
        else:
            pool = [0] * len(cluster.pool)
        span = pool
        for j in range(1, min(model.addrs_per_cluster, len(pool))):
            span = [s | b for s, b in zip(span, pool[j:] + pool[:j])]
        spans.append(span)

    # Replay an hour's events together: they commute, and the per-event
    # rule (same-hour changes merge, an undo drops the point) leaves a
    # change point exactly at each hour whose final set differs from
    # the last change point's.
    served = [spans[i][window[i]] if active[i] else 0
              for i in range(len(clusters))]
    change_hours, rows = [0], [reduce(or_, served, 0)]
    for hour in sorted(moves):
        for i, rotates in moves[hour]:
            if rotates:
                window[i] = (window[i] + 1) % len(spans[i])
            else:
                active[i] = not active[i]
            served[i] = spans[i][window[i]] if active[i] else 0
        row = reduce(or_, served, 0)
        if row != rows[-1]:
            change_hours.append(hour)
            rows.append(row)
    matrix = AddrsMatrix.from_rows(name, change_hours, columns.values, rows)
    return AddressTimeline(hours, matrix)


def build_timeline(
    name: ContentName,
    model,
    hours: int,
    rng: random.Random,
    coverage: Optional[Set[str]] = None,
    topology: Optional[ASTopology] = None,
) -> AddressTimeline:
    """Dispatch on the hosting model type."""
    if isinstance(model, OriginHosting):
        return build_origin_timeline(name, model, hours, rng, topology=topology)
    if isinstance(model, CDNHosting):
        return build_cdn_timeline(name, model, hours, rng, coverage=coverage)
    raise TypeError(f"unknown hosting model: {type(model).__name__}")
