"""The object simulator: the mobility workload's reference.

:func:`repro.mobility.generate_workload` writes one segment table, and
its event table is a numpy gather of consecutive rows. This module is
the simulator it replaced, written the plain way: each attach builds a
:class:`~repro.mobility.NetworkLocation`, each stay a
:class:`~repro.mobility.DaySegment` (checked when built, and rebuilt
by ``_normalize``), each day a :class:`~repro.mobility.UserDay`, and
the events are the consecutive segment pairs :func:`_ip_changes` walks.
It makes the same random draws in the same order, so for one topology
and config :func:`simulate` returns the days the table's
``user_days`` view must equal, and :func:`event_columns` the event
table ``as_columns`` must equal byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mobility import (
    HOURS_PER_DAY,
    DaySegment,
    MobilityWorkloadConfig,
    NetworkLocation,
    UserClass,
    UserDay,
    UserProfile,
)
from repro.mobility.synth import _weighted_choice
from repro.net import IPv4Prefix
from repro.topology import ASTopology, Tier
from repro.workload import DeviceEventColumns

__all__ = [
    "AccessNetwork",
    "simulate_user_day",
    "simulate",
    "event_columns",
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
