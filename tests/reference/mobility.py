"""The object simulator and the object readers: the mobility reference.

:func:`repro.mobility.generate_workload` writes one segment table, its
event table is a numpy gather of consecutive rows, and the Fig. 6/7/9,
Fig. 10, fib-size and multihoming readers reduce the table's columns.
This module is what they replaced, written the plain way.

The simulator: each attach builds a
:class:`~repro.mobility.NetworkLocation`, each stay a :class:`DaySegment`
(checked when built, and rebuilt by ``_normalize``), each day a
:class:`UserDay`, and the events are the consecutive segment pairs
:func:`_ip_changes` walks. It makes the same random draws in the same
order, so for one topology and config :func:`simulate` returns the days
:func:`user_days` reads back from the table, and :func:`event_columns`
the event table ``as_columns`` must equal byte for byte.

The readers: :func:`day_stats` walks one :class:`UserDay` with dicts,
:func:`user_averages` and :func:`dominant_residence_samples` reduce its
results, and :func:`build_multihomed_timeline` overlays the cellular
anchor onto a device's days segment by segment, returning a
:class:`MultihomedTimeline` whose :meth:`~MultihomedTimeline.events`
and :meth:`~MultihomedTimeline.set_at` read its change points back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility import (
    HOURS_PER_DAY,
    MobilityEvent,
    MobilityWorkloadConfig,
    NetworkLocation,
    UserAverages,
    UserClass,
    UserProfile,
)
from repro.mobility.synth import _weighted_choice
from repro.net import IPv4Address, IPv4Prefix
from repro.topology import ASTopology, Tier
from repro.workload import DeviceEventColumns

__all__ = [
    "DaySegment",
    "UserDay",
    "user_days",
    "AccessNetwork",
    "simulate_user_day",
    "simulate",
    "event_columns",
    "DayStats",
    "day_stats",
    "user_averages",
    "dominant_residence_samples",
    "MultihomedEvent",
    "MultihomedTimeline",
    "build_multihomed_timeline",
]


@dataclass(frozen=True)
class DaySegment:
    """A contiguous stay at one network location within a day."""

    location: NetworkLocation
    start_hour: float
    duration_hours: float
    net_type: str = "wifi"  # "wifi" or "cellular"

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise ValueError(f"non-positive duration: {self.duration_hours}")
        if not 0.0 <= self.start_hour < HOURS_PER_DAY:
            raise ValueError(f"start hour out of range: {self.start_hour}")

    @property
    def end_hour(self) -> float:
        """When the segment ends (may exceed 24 only by float error)."""
        return self.start_hour + self.duration_hours


@dataclass
class UserDay:
    """One user's full day: contiguous segments covering 0..24h."""

    user_id: str
    day: int
    segments: List[DaySegment]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a user day needs at least one segment")
        cursor = 0.0
        for seg in self.segments:
            if abs(seg.start_hour - cursor) > 1e-6:
                raise ValueError(
                    f"segments must be contiguous: gap at hour {cursor:.3f}"
                )
            cursor = seg.start_hour + seg.duration_hours
        if abs(cursor - HOURS_PER_DAY) > 1e-6:
            raise ValueError(f"day covers {cursor:.3f}h, expected 24h")

    def locations(self) -> List[NetworkLocation]:
        """The location of each segment, in order."""
        return [seg.location for seg in self.segments]

    def transitions(self) -> List[MobilityEvent]:
        """Mobility events: consecutive segments with a changed IP."""
        events = []
        for a, b in zip(self.segments, self.segments[1:]):
            if a.location.ip != b.location.ip:
                events.append(
                    MobilityEvent(
                        user_id=self.user_id,
                        day=self.day,
                        hour=b.start_hour,
                        old=a.location,
                        new=b.location,
                    )
                )
        return events


def user_days(workload) -> List[UserDay]:
    """The :class:`UserDay` records of a workload's segment table.

    Reads ``workload.segments`` and ``workload.user_ids``; days come in
    table order. Rows with the same address, prefix and AS share one
    :class:`NetworkLocation`, as a sticky lease's segments do.
    """
    segments, users = workload.segments, workload.user_ids
    if not len(segments):
        return []
    user, day = segments["user"], segments["day"]
    bounds = (
        np.flatnonzero((user[1:] != user[:-1]) | (day[1:] != day[:-1])) + 1
    ).tolist()
    locations: Dict[tuple, NetworkLocation] = {}
    stays: List[DaySegment] = []
    for start, duration, ip, net, length, asn, cellular in zip(*(
        segments[name].tolist()
        for name in ("start", "duration", "ip", "net", "len", "asn", "cellular")
    )):
        key = (ip, net, length, asn)
        location = locations.get(key)
        if location is None:
            location = locations[key] = NetworkLocation(
                IPv4Address(ip), IPv4Prefix(net, length), asn
            )
        stays.append(DaySegment(
            location, start, duration, "cellular" if cellular else "wifi"
        ))
    return [
        UserDay(users[user[a]], int(day[a]), stays[a:b])
        for a, b in zip([0, *bounds], [*bounds, len(stays)])
    ]


@dataclass
class AccessNetwork:
    """An access network a device can attach to.

    WiFi networks hand out a sticky address (long DHCP lease); cellular
    networks draw a fresh address from the carrier pool on every
    attach, which is what makes cellular devices mobile in the
    network-location sense even when physically still.
    """

    asn: int
    prefixes: List[IPv4Prefix]
    sticky: bool
    #: For non-sticky (cellular) networks: probability a re-attach stays
    #: in the previously used prefix pool. Carriers recycle addresses
    #: from the same pool far more often than they move devices across
    #: pools, which keeps the paper's prefix curve between the AS and
    #: IP curves in Figs. 6-7.
    prefix_stickiness: float = 0.75
    _lease: Optional[NetworkLocation] = field(default=None, repr=False)
    _last_prefix: Optional[IPv4Prefix] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise ValueError("an access network needs at least one prefix")

    def attach(self, rng: random.Random) -> NetworkLocation:
        """The network location obtained by (re)connecting."""
        if self.sticky and self._lease is not None:
            return self._lease
        if (
            self._last_prefix is not None
            and rng.random() < self.prefix_stickiness
        ):
            prefix = self._last_prefix
        else:
            prefix = rng.choice(self.prefixes)
        self._last_prefix = prefix
        host = rng.randrange(1, min(prefix.num_addresses(), 1 << 16))
        location = NetworkLocation(
            ip=prefix.address_at(host), prefix=prefix, asn=self.asn
        )
        if self.sticky:
            self._lease = location
        return location

    def renew_lease(self, rng: random.Random) -> None:
        """Force a sticky network to hand out a new address (DHCP churn)."""
        self._lease = None
        if self.sticky:
            self.attach(rng)


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def _cellular_segments(
    profile: UserProfile,
    rng: random.Random,
    start: float,
    duration: float,
) -> List[DaySegment]:
    """Split a cellular period into per-attach segments (fresh IP each)."""
    if duration <= 0:
        return []
    period = max(0.2, profile.attach_period_hours / max(profile.activity, 0.1))
    segments: List[DaySegment] = []
    cursor = start
    remaining = duration
    while remaining > 1e-9:
        chunk = min(remaining, rng.uniform(0.5 * period, 1.5 * period))
        location = profile.cellular.attach(rng)
        segments.append(
            DaySegment(
                location=location,
                start_hour=cursor,
                duration_hours=chunk,
                net_type="cellular",
            )
        )
        cursor += chunk
        remaining -= chunk
    return segments


def _wifi_segment(
    network: AccessNetwork,
    rng: random.Random,
    start: float,
    duration: float,
) -> DaySegment:
    return DaySegment(
        location=network.attach(rng),
        start_hour=start,
        duration_hours=duration,
        net_type="wifi",
    )


def _normalize(segments: List[DaySegment]) -> List[DaySegment]:
    """Force exact contiguous 0..24 coverage (fix float drift)."""
    fixed: List[DaySegment] = []
    cursor = 0.0
    for i, seg in enumerate(segments):
        end = HOURS_PER_DAY if i == len(segments) - 1 else seg.end_hour
        duration = end - cursor
        if duration <= 1e-9:
            continue
        fixed.append(
            DaySegment(
                location=seg.location,
                start_hour=cursor,
                duration_hours=duration,
                net_type=seg.net_type,
            )
        )
        cursor += duration
    return fixed


def simulate_user_day(
    profile: UserProfile, day: int, rng: random.Random, weekend: bool = False
) -> UserDay:
    """Simulate one day of attachments for ``profile``.

    The returned :class:`UserDay` covers 0..24h contiguously. Weekend
    days suppress the commute pattern (commuters behave like
    homebodies), which is what produces the within-user day-to-day
    variance the paper's per-day statistics average over.
    """
    if profile.home is not None and rng.random() < profile.home_lease_churn:
        profile.home.renew_lease(rng)

    cls = profile.user_class
    if weekend and cls in (UserClass.CELLULAR_COMMUTER, UserClass.WIFI_COMMUTER):
        cls = UserClass.WIFI_HOMEBODY if profile.home else UserClass.CELLULAR_ONLY

    builders = {
        UserClass.WIFI_HOMEBODY: _homebody_day,
        UserClass.CELLULAR_COMMUTER: _cellular_commuter_day,
        UserClass.WIFI_COMMUTER: _wifi_commuter_day,
        UserClass.CELLULAR_ONLY: _cellular_only_day,
        UserClass.NOMAD: _nomad_day,
    }
    segments = builders[cls](profile, rng)
    return UserDay(user_id=profile.user_id, day=day, segments=_normalize(segments))


def simulate_user_days(
    profile: UserProfile, num_days: int, rng: random.Random
) -> List[UserDay]:
    """Simulate ``num_days`` consecutive days for one profile.

    The batch entry point the workload generator (and the columnar
    pipeline behind it) drives: one call per user instead of one per
    user-day. Draws flow through ``rng`` in exactly the same order as
    ``num_days`` successive :func:`simulate_user_day` calls — day
    ``d`` is a weekend iff ``d % 7 in (5, 6)`` — so traces generated
    either way are identical for a given seed.
    """
    return [
        simulate_user_day(profile, day, rng, weekend=day % 7 in (5, 6))
        for day in range(num_days)
    ]


def _homebody_day(profile: UserProfile, rng: random.Random) -> List[DaySegment]:
    home = profile.home or profile.cellular
    segments: List[DaySegment] = []
    # Expected number of short cellular excursions scales with activity.
    excursions = 0
    mean = 0.8 * profile.activity
    # Poisson sampling via thinning with the shared rng.
    excursions = _poisson(rng, mean)
    excursions = min(excursions, 4)
    if excursions == 0 or profile.home is None:
        segments.append(_wifi_segment(home, rng, 0.0, HOURS_PER_DAY))
        return segments
    # Lay out excursions in the 9h-21h window.
    starts = sorted(rng.uniform(9.0, 20.0) for _ in range(excursions))
    cursor = 0.0
    for s in starts:
        if s <= cursor + 0.25:
            continue
        segments.append(_wifi_segment(home, rng, cursor, s - cursor))
        duration = _clamp(rng.uniform(0.4, 2.0), 0.2, 21.5 - s)
        segments.extend(_cellular_segments(profile, rng, s, duration))
        cursor = s + duration
    if cursor < HOURS_PER_DAY:
        segments.append(_wifi_segment(home, rng, cursor, HOURS_PER_DAY - cursor))
    return segments


def _cellular_commuter_day(
    profile: UserProfile, rng: random.Random
) -> List[DaySegment]:
    home = profile.home or profile.cellular
    leave = _clamp(rng.gauss(8.3, 0.6), 6.5, 10.5)
    back = _clamp(rng.gauss(17.8, 0.9), leave + 4.0, 22.0)
    segments = [_wifi_segment(home, rng, 0.0, leave)]
    segments.extend(_cellular_segments(profile, rng, leave, back - leave))
    segments.append(_wifi_segment(home, rng, back, HOURS_PER_DAY - back))
    return segments


def _wifi_commuter_day(profile: UserProfile, rng: random.Random) -> List[DaySegment]:
    home = profile.home or profile.cellular
    work = profile.work or profile.cellular
    leave = _clamp(rng.gauss(8.2, 0.5), 6.5, 10.0)
    commute1 = rng.uniform(0.3, 1.0)
    depart_work = _clamp(rng.gauss(17.4, 0.7), leave + commute1 + 4.0, 21.0)
    commute2 = rng.uniform(0.3, 1.0)
    segments = [_wifi_segment(home, rng, 0.0, leave)]
    segments.extend(_cellular_segments(profile, rng, leave, commute1))
    work_start = leave + commute1
    work_hours = depart_work - work_start
    # Lunchtime cellular flap with some probability.
    if rng.random() < 0.45 * min(profile.activity, 2.0) and work_hours > 3.0:
        lunch = work_start + work_hours * rng.uniform(0.35, 0.55)
        lunch_len = rng.uniform(0.3, 0.8)
        segments.append(_wifi_segment(work, rng, work_start, lunch - work_start))
        segments.extend(_cellular_segments(profile, rng, lunch, lunch_len))
        segments.append(
            _wifi_segment(work, rng, lunch + lunch_len, depart_work - lunch - lunch_len)
        )
    else:
        segments.append(_wifi_segment(work, rng, work_start, work_hours))
    segments.extend(_cellular_segments(profile, rng, depart_work, commute2))
    home_return = depart_work + commute2
    segments.append(_wifi_segment(home, rng, home_return, HOURS_PER_DAY - home_return))
    return segments


def _cellular_only_day(profile: UserProfile, rng: random.Random) -> List[DaySegment]:
    # The whole day on the carrier; overnight the radio holds one
    # address, daytime re-attaches churn it. Occasionally the user hops
    # onto a public WiFi venue for a while.
    overnight_end = _clamp(rng.gauss(7.5, 0.8), 5.0, 9.5)
    night_loc = profile.cellular.attach(rng)
    segments = [
        DaySegment(
            location=night_loc,
            start_hour=0.0,
            duration_hours=overnight_end,
            net_type="cellular",
        )
    ]
    if profile.venues and rng.random() < 0.20:
        stop_start = rng.uniform(overnight_end + 1.0, 19.0)
        stop_len = rng.uniform(0.5, 1.5)
        venue = rng.choice(profile.venues)
        segments.extend(
            _cellular_segments(profile, rng, overnight_end, stop_start - overnight_end)
        )
        segments.append(_wifi_segment(venue, rng, stop_start, stop_len))
        segments.extend(
            _cellular_segments(
                profile, rng, stop_start + stop_len, HOURS_PER_DAY - stop_start - stop_len
            )
        )
    else:
        segments.extend(
            _cellular_segments(
                profile, rng, overnight_end, HOURS_PER_DAY - overnight_end
            )
        )
    return segments


def _nomad_day(profile: UserProfile, rng: random.Random) -> List[DaySegment]:
    home = profile.home or profile.cellular
    out_start = _clamp(rng.gauss(9.0, 0.8), 7.0, 11.0)
    out_end = _clamp(rng.gauss(21.0, 1.0), out_start + 6.0, 23.5)
    segments = [_wifi_segment(home, rng, 0.0, out_start)]
    cursor = out_start
    venues = profile.venues or [profile.cellular]
    alternation = profile.venue_alternation
    stay_scale = 1.0 if alternation <= 0.5 else 0.35
    while cursor < out_end - 0.2:
        if rng.random() < alternation:
            # A venue WiFi stop (aggressive flappers make short ones).
            venue = rng.choice(venues)
            duration = min(
                rng.uniform(0.3, 1.5) * stay_scale, out_end - cursor
            )
            segments.append(_wifi_segment(venue, rng, cursor, duration))
            cursor += duration
        else:
            # On the move: cellular, with aggressive re-attach churn
            # (the per-attach splitting in _cellular_segments is what
            # produces the nomads' tens of addresses per day).
            duration = min(rng.uniform(0.5, 2.0), out_end - cursor)
            segments.extend(_cellular_segments(profile, rng, cursor, duration))
            cursor += duration
    segments.append(_wifi_segment(home, rng, out_end, HOURS_PER_DAY - out_end))
    return segments


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's Poisson sampler driven by the shared rng."""
    if mean <= 0:
        return 0
    import math

    limit = math.exp(-mean)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _ip_changes(user_days: List[UserDay]):
    """``(user_day, segment, next segment)`` for every pair of
    consecutive segments whose IP differs: each mobility event, in
    trace order, without building it."""
    for ud in user_days:
        segments = ud.segments
        for a, b in zip(segments, segments[1:]):
            if a.location.ip != b.location.ip:
                yield ud, a, b


def _pick_carriers(
    topology: ASTopology, region: str, count: int, rng: random.Random
) -> List[AccessNetwork]:
    """Designate regional cellular carriers.

    Carriers are the region's largest *stub* ASes (most address space):
    like real mobile operators they are edge networks — customers of
    the regional transit tier-2s, not transit providers themselves —
    so a phone's home broadband AS and its carrier AS are two or more
    AS hops apart (§6.3.2) even when, seen from a distant router, both
    are reached through the same upstream. Each attach draws from the
    whole carrier pool, which is what makes cellular addresses churn.
    """
    stubs = topology.ases_in_region(region, Tier.STUB)
    ranked = sorted(
        stubs, key=lambda a: (-len(topology.ases[a].prefixes), a)
    )
    carriers = []
    for asn in ranked[:count]:
        carriers.append(
            AccessNetwork(
                asn=asn, prefixes=list(topology.ases[asn].prefixes), sticky=False
            )
        )
    if not carriers:
        raise ValueError(f"region {region!r} has no stub AS to act as carrier")
    return carriers


def _pick_stub_network(
    topology: ASTopology,
    region: str,
    rng: random.Random,
    under_provider: Optional[int] = None,
) -> AccessNetwork:
    stubs = topology.ases_in_region(region, Tier.STUB)
    if under_provider is not None:
        affiliated = [
            a for a in stubs if under_provider in topology.ases[a].providers
        ]
        if affiliated:
            stubs = affiliated
    asn = rng.choice(stubs)
    node = topology.ases[asn]
    prefix = rng.choice(node.prefixes)
    return AccessNetwork(asn=asn, prefixes=[prefix], sticky=True)


def simulate(
    topology: ASTopology, cfg: MobilityWorkloadConfig
) -> Tuple[List[UserProfile], List[UserDay]]:
    """The population of ``cfg`` and its simulated user-days."""
    rng = random.Random(cfg.seed)

    carriers: Dict[str, List[AccessNetwork]] = {}
    venues: Dict[str, List[AccessNetwork]] = {}
    for region in sorted(cfg.region_weights):
        carriers[region] = _pick_carriers(
            topology, region, cfg.carriers_per_region, rng
        )
        venues[region] = [
            _pick_stub_network(topology, region, rng)
            for _ in range(cfg.venues_per_region)
        ]

    profiles: List[UserProfile] = []
    for i in range(cfg.num_users):
        region = _weighted_choice(rng, cfg.region_weights)
        user_class = _weighted_choice(rng, cfg.class_weights)
        cellular = rng.choice(carriers[region])
        # The carrier's primary transit provider: home/work ISPs that
        # share it are reached via the same upstream at remote routers.
        carrier_transit = min(topology.ases[cellular.asn].providers)
        home_provider = (
            carrier_transit if rng.random() < cfg.home_via_carrier_prob else None
        )
        home = (
            None
            if user_class is UserClass.CELLULAR_ONLY
            else _pick_stub_network(
                topology, region, rng, under_provider=home_provider
            )
        )
        work_provider = (
            carrier_transit if rng.random() < cfg.home_via_carrier_prob else None
        )
        work = (
            _pick_stub_network(
                topology, region, rng, under_provider=work_provider
            )
            if user_class is UserClass.WIFI_COMMUTER
            else None
        )
        activity = math.exp(rng.gauss(0.0, cfg.activity_sigma)) * (
            cfg.mobility_scale
        )
        user_venues = rng.sample(venues[region], k=min(3, len(venues[region])))
        # Nomads re-attach much faster (aggressive WiFi<->LTE switching);
        # this drives the heavy tail of Figs. 6-7.
        if user_class is UserClass.NOMAD:
            attach_period = rng.uniform(0.5, 1.2)
            # ~15% of nomads are aggressive WiFi<->LTE flappers — the
            # long tail of Fig. 7 (up to ~30 AS transitions per day).
            venue_alternation = 0.7 if rng.random() < 0.15 else rng.uniform(
                0.2, 0.4
            )
        else:
            attach_period = rng.uniform(2.0, 4.0)
            venue_alternation = 0.3
        profiles.append(
            UserProfile(
                user_id=f"u{i:04d}",
                user_class=user_class,
                region=region,
                home=home,
                work=work,
                cellular=cellular,
                venues=user_venues,
                attach_period_hours=attach_period,
                activity=activity,
                venue_alternation=venue_alternation,
            )
        )

    user_days: List[UserDay] = []
    for profile in profiles:
        user_days.extend(simulate_user_days(profile, cfg.num_days, rng))
    return profiles, user_days


def event_columns(user_days: List[UserDay]) -> DeviceEventColumns:
    """The event table of ``user_days``, built from segment pairs."""
    return DeviceEventColumns.from_moves([
        (ud.user_id, ud.day, b.start_hour, a.location, b.location)
        for ud, a, b in _ip_changes(user_days)
    ])


@dataclass(frozen=True)
class DayStats:
    """Network-mobility statistics for one user-day."""

    user_id: str
    day: int
    distinct_ips: int
    distinct_prefixes: int
    distinct_ases: int
    ip_transitions: int
    prefix_transitions: int
    as_transitions: int
    dominant_ip_fraction: float
    dominant_prefix_fraction: float
    dominant_as_fraction: float
    dominant_asn: int
    hours_by_asn: Dict[int, float]


def day_stats(user_day: UserDay) -> DayStats:
    """All per-day statistics for one :class:`UserDay`."""
    ips = set()
    prefixes = set()
    ases = set()
    ip_hours: Dict[object, float] = {}
    prefix_hours: Dict[object, float] = {}
    as_hours: Dict[int, float] = {}
    for seg in user_day.segments:
        loc = seg.location
        ips.add(loc.ip)
        prefixes.add(loc.prefix)
        ases.add(loc.asn)
        ip_hours[loc.ip] = ip_hours.get(loc.ip, 0.0) + seg.duration_hours
        prefix_hours[loc.prefix] = (
            prefix_hours.get(loc.prefix, 0.0) + seg.duration_hours
        )
        as_hours[loc.asn] = as_hours.get(loc.asn, 0.0) + seg.duration_hours

    ip_trans = prefix_trans = as_trans = 0
    for a, b in zip(user_day.segments, user_day.segments[1:]):
        if a.location.ip != b.location.ip:
            ip_trans += 1
        if a.location.prefix != b.location.prefix:
            prefix_trans += 1
        if a.location.asn != b.location.asn:
            as_trans += 1

    dominant_asn = max(as_hours, key=lambda k: (as_hours[k], -k))
    return DayStats(
        user_id=user_day.user_id,
        day=user_day.day,
        distinct_ips=len(ips),
        distinct_prefixes=len(prefixes),
        distinct_ases=len(ases),
        ip_transitions=ip_trans,
        prefix_transitions=prefix_trans,
        as_transitions=as_trans,
        dominant_ip_fraction=max(ip_hours.values()) / HOURS_PER_DAY,
        dominant_prefix_fraction=max(prefix_hours.values()) / HOURS_PER_DAY,
        dominant_as_fraction=max(as_hours.values()) / HOURS_PER_DAY,
        dominant_asn=dominant_asn,
        hours_by_asn=as_hours,
    )


def user_averages(user_days: Iterable[UserDay]) -> List[UserAverages]:
    """Group user-days by user and average the daily statistics."""
    per_user: Dict[str, List[DayStats]] = {}
    for ud in user_days:
        per_user.setdefault(ud.user_id, []).append(day_stats(ud))
    result = []
    for user_id in sorted(per_user):
        days = per_user[user_id]
        n = len(days)
        result.append(
            UserAverages(
                user_id=user_id,
                num_days=n,
                avg_distinct_ips=sum(d.distinct_ips for d in days) / n,
                avg_distinct_prefixes=sum(d.distinct_prefixes for d in days) / n,
                avg_distinct_ases=sum(d.distinct_ases for d in days) / n,
                avg_ip_transitions=sum(d.ip_transitions for d in days) / n,
                avg_prefix_transitions=sum(d.prefix_transitions for d in days) / n,
                avg_as_transitions=sum(d.as_transitions for d in days) / n,
            )
        )
    return result


def dominant_residence_samples(
    user_days: Iterable[UserDay],
) -> Tuple[List[float], List[float], List[float]]:
    """Fig. 9 samples: (ip, prefix, AS) dominant fractions per user-day."""
    ip_samples: List[float] = []
    prefix_samples: List[float] = []
    as_samples: List[float] = []
    for ud in user_days:
        stats = day_stats(ud)
        ip_samples.append(stats.dominant_ip_fraction)
        prefix_samples.append(stats.dominant_prefix_fraction)
        as_samples.append(stats.dominant_as_fraction)
    return ip_samples, prefix_samples, as_samples


@dataclass(frozen=True)
class MultihomedEvent:
    """A change in a device's simultaneous address set."""

    user_id: str
    hour: float  # hours since trace start
    old_addrs: FrozenSet[IPv4Address]
    new_addrs: FrozenSet[IPv4Address]

    def added(self) -> FrozenSet[IPv4Address]:
        return self.new_addrs - self.old_addrs

    def removed(self) -> FrozenSet[IPv4Address]:
        return self.old_addrs - self.new_addrs


@dataclass
class MultihomedTimeline:
    """``Addrs(device, t)`` over a whole trace, as change points that
    read back as events and sets."""

    user_id: str
    dual_radio: bool
    changes: List[Tuple[float, FrozenSet[IPv4Address]]]

    def events(self) -> List[MultihomedEvent]:
        """All set-changing events, in time order."""
        out = []
        for (_, old), (hour, new) in zip(self.changes, self.changes[1:]):
            out.append(
                MultihomedEvent(
                    user_id=self.user_id,
                    hour=hour,
                    old_addrs=old,
                    new_addrs=new,
                )
            )
        return out

    def set_at(self, hour: float) -> FrozenSet[IPv4Address]:
        """The address set at ``hour`` (hours since trace start)."""
        current = self.changes[0][1]
        for change_hour, addrs in self.changes:
            if change_hour > hour:
                break
            current = addrs
        return current


def build_multihomed_timeline(
    user_days: Sequence[UserDay],
    dual_radio: bool,
    cellular_hold_hours: float = 2.0,
) -> MultihomedTimeline:
    """Overlay a persistent cellular attachment onto a device's days.

    For a dual-radio device, the most recent cellular address remains
    in the set during WiFi segments for up to ``cellular_hold_hours``
    after the device left cellular (idle radios eventually detach).
    Single-radio devices produce the singleton-set timeline.
    """
    if not user_days:
        raise ValueError("need at least one user day")
    ordered = sorted(user_days, key=lambda d: d.day)
    user_ids = {d.user_id for d in ordered}
    if len(user_ids) != 1:
        raise ValueError(f"user days span multiple users: {sorted(user_ids)}")
    user_id = ordered[0].user_id

    changes: List[Tuple[float, FrozenSet[IPv4Address]]] = []
    last_cellular: Optional[Tuple[float, NetworkLocation]] = None

    def emit(hour: float, addrs: FrozenSet[IPv4Address]) -> None:
        if changes and changes[-1][1] == addrs:
            return
        if changes and changes[-1][0] == hour:
            changes[-1] = (hour, addrs)
            if len(changes) >= 2 and changes[-2][1] == addrs:
                changes.pop()
            return
        changes.append((hour, addrs))

    for user_day in ordered:
        base_hour = user_day.day * 24.0
        for segment in user_day.segments:
            start = base_hour + segment.start_hour
            end = start + segment.duration_hours
            addrs = {segment.location.ip}
            if segment.net_type == "cellular":
                last_cellular = (end, segment.location)
                emit(start, frozenset(addrs))
                continue
            if dual_radio and last_cellular is not None:
                left_cellular_at, cellular_loc = last_cellular
                expiry = left_cellular_at + cellular_hold_hours
                if start < expiry:
                    emit(start, frozenset(addrs | {cellular_loc.ip}))
                    if expiry < end:
                        # The idle radio detaches mid-segment: the
                        # cellular address drops out of the set.
                        emit(expiry, frozenset(addrs))
                    continue
            emit(start, frozenset(addrs))
    if not changes:
        raise ValueError("user days produced no segments")
    return MultihomedTimeline(
        user_id=user_id, dual_radio=dual_radio, changes=changes
    )
