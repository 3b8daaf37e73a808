"""Behavioural device-mobility model behind the synthetic NomadLog trace.

The paper's NomadLog dataset (372 smartphones, 14 months) is not
public, so this module provides a generative model of *network*
mobility whose population statistics are calibrated against everything
§4/§6.1/§6.3 report about the real trace (see
:mod:`repro.mobility.synth` for the calibration targets).

The model follows the paper's qualitative reading of its own data:
"users typically move across a cellular, home, and work address in the
course of a day", the number of transitions "depends upon the user's
physical mobility, network performance or outage patterns, and
behavioral patterns", and there is a heavy tail of users who flap
between WiFi and LTE tens of times a day. Five behavioural classes
cover that range:

* ``WIFI_HOMEBODY`` — phone parks on home WiFi; short cellular
  excursions.
* ``CELLULAR_COMMUTER`` — home WiFi overnight, all-day cellular while
  out; the carrier re-assigns an address on every re-attach.
* ``WIFI_COMMUTER`` — home WiFi, work WiFi, cellular in between.
* ``CELLULAR_ONLY`` — no home WiFi; lives on the carrier network
  (stable AS, churning addresses).
* ``NOMAD`` — heavy flapper: cafés, hotspots, frequent WiFi<->LTE
  switches.

Every stochastic choice flows from one ``random.Random`` instance, so
traces are reproducible from a seed.

The day builders emit plain rows, not record objects: a
:data:`Location` per attach and a :data:`Row` per stay.
:func:`segment_table` normalizes each day's rows, stacks them into one
:data:`~repro.workload.columns.SEGMENT_DTYPE` table and runs every
check of :class:`~repro.mobility.NetworkLocation` and of the stay and
day records (``DaySegment``, ``UserDay``) the object simulator built,
once over it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..net import IPv4Address, IPv4Prefix
from ..workload.columns import SEGMENT_DTYPE, np
from .events import HOURS_PER_DAY

__all__ = [
    "UserClass",
    "AccessNetwork",
    "UserProfile",
    "Location",
    "Row",
    "simulate_user_day",
    "simulate_user_days",
    "segment_table",
    "check_segments",
]

#: A point of attachment as the simulator carries it: ``(address value,
#: covering prefix, origin AS)``, the fields of a ``NetworkLocation``.
Location = Tuple[int, IPv4Prefix, int]

#: One stay as a day builder emits it: ``(location, start hour,
#: duration in hours, cellular?)``, the fields of a segment-table row.
Row = Tuple[Location, float, float, bool]


class UserClass(enum.Enum):
    """Behavioural class of a device owner."""

    WIFI_HOMEBODY = "wifi_homebody"
    CELLULAR_COMMUTER = "cellular_commuter"
    WIFI_COMMUTER = "wifi_commuter"
    CELLULAR_ONLY = "cellular_only"
    NOMAD = "nomad"


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
    _lease: Optional[Location] = field(default=None, repr=False)
    _last_prefix: Optional[IPv4Prefix] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise ValueError("an access network needs at least one prefix")

    def attach(self, rng: random.Random) -> Location:
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
        location = (prefix.network + host, prefix, self.asn)
        if self.sticky:
            self._lease = location
        return location

    def renew_lease(self, rng: random.Random) -> None:
        """Force a sticky network to hand out a new address (DHCP churn)."""
        self._lease = None
        if self.sticky:
            self.attach(rng)


@dataclass
class UserProfile:
    """One device owner: anchors plus behavioural parameters."""

    user_id: str
    user_class: UserClass
    region: str
    home: Optional[AccessNetwork]
    work: Optional[AccessNetwork]
    cellular: AccessNetwork
    venues: List[AccessNetwork] = field(default_factory=list)
    #: Mean hours between cellular re-attaches while on cellular.
    attach_period_hours: float = 3.0
    #: Per-user multiplier on out-of-home activity (lognormal across
    #: the population; drives the heavy tail of Figs. 6-7).
    activity: float = 1.0
    #: Probability the home lease changes on a given day.
    home_lease_churn: float = 0.02
    #: Nomads only: probability an out-of-home leg is a WiFi venue stop
    #: rather than a cellular leg. The rare aggressive flappers (the
    #: paper's 31.6-AS-transitions-per-day outlier) have high values.
    venue_alternation: float = 0.3


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def _cellular_segments(
    profile: UserProfile,
    rng: random.Random,
    start: float,
    duration: float,
) -> List[Row]:
    """Split a cellular period into per-attach rows (fresh IP each)."""
    if duration <= 0:
        return []
    period = max(0.2, profile.attach_period_hours / max(profile.activity, 0.1))
    rows: List[Row] = []
    cursor = start
    remaining = duration
    while remaining > 1e-9:
        chunk = min(remaining, rng.uniform(0.5 * period, 1.5 * period))
        rows.append((profile.cellular.attach(rng), cursor, chunk, True))
        cursor += chunk
        remaining -= chunk
    return rows


def _wifi_segment(
    network: AccessNetwork,
    rng: random.Random,
    start: float,
    duration: float,
) -> Row:
    return (network.attach(rng), start, duration, False)


def _normalize(rows: List[Row]) -> List[Row]:
    """Force exact contiguous 0..24 coverage (fix float drift)."""
    fixed: List[Row] = []
    cursor = 0.0
    last = len(rows) - 1
    for i, (location, start, duration, cellular) in enumerate(rows):
        end = HOURS_PER_DAY if i == last else start + duration
        duration = end - cursor
        if duration <= 1e-9:
            continue
        fixed.append((location, cursor, duration, cellular))
        cursor += duration
    return fixed


def simulate_user_day(
    profile: UserProfile, day: int, rng: random.Random, weekend: bool = False
) -> List[Row]:
    """Simulate one day of attachments for ``profile``.

    Returns the day builder's rows, in time order; :func:`segment_table`
    normalizes them to cover 0..24h contiguously and checks them.
    Weekend days suppress the commute pattern (commuters behave like
    homebodies), which is what produces the within-user day-to-day
    variance the paper's per-day statistics average over.
    """
    if profile.home is not None and rng.random() < profile.home_lease_churn:
        profile.home.renew_lease(rng)

    cls = profile.user_class
    if weekend and cls in (UserClass.CELLULAR_COMMUTER, UserClass.WIFI_COMMUTER):
        cls = UserClass.WIFI_HOMEBODY if profile.home else UserClass.CELLULAR_ONLY

    return _DAY_BUILDERS[cls](profile, rng)


def simulate_user_days(
    profile: UserProfile, num_days: int, rng: random.Random
) -> List[List[Row]]:
    """Simulate ``num_days`` consecutive days for one profile.

    The batch entry point the workload generator drives: one call per
    user instead of one per user-day. Draws flow through ``rng`` in
    exactly the same order as ``num_days`` successive
    :func:`simulate_user_day` calls — day ``d`` is a weekend iff
    ``d % 7 in (5, 6)`` — so traces generated either way are identical
    for a given seed.
    """
    return [
        simulate_user_day(profile, day, rng, weekend=day % 7 in (5, 6))
        for day in range(num_days)
    ]


def segment_table(days: Iterable[Tuple[int, int, List[Row]]]) -> "np.ndarray":
    """Stack simulated days into one checked segment table.

    ``days`` yields ``(user, day, rows)`` in trace order, with ``rows``
    as :func:`simulate_user_day` returns them. The rows are checked as
    ``DaySegment``s, each day is normalized (:func:`_normalize`), and
    the result is stacked into a :data:`SEGMENT_DTYPE` table that
    :func:`check_segments` checks as a whole. Raises the ``ValueError``
    the record objects raise.
    """
    raw_start: List[float] = []
    raw_duration: List[float] = []
    flat: List[tuple] = []
    empty = False
    for user, day, rows in days:
        raw_start += [row[1] for row in rows]
        raw_duration += [row[2] for row in rows]
        fixed = _normalize(rows)
        empty = empty or not fixed
        flat.extend([
            (user, day, start, duration, ip, prefix.network, prefix.length,
             asn, cellular)
            for (ip, prefix, asn), start, duration, cellular in fixed
        ])
    _check_stays(
        np.array(raw_start, dtype=np.float64),
        np.array(raw_duration, dtype=np.float64),
    )
    if empty:
        raise ValueError("a user day needs at least one segment")
    table = np.array(flat, dtype=SEGMENT_DTYPE)
    check_segments(table)
    return table


def _check_stays(start: "np.ndarray", duration: "np.ndarray") -> None:
    """``DaySegment``'s checks over columns of starts and durations."""
    bad = np.flatnonzero(duration <= 0)
    if bad.size:
        raise ValueError(f"non-positive duration: {float(duration[bad[0]])}")
    bad = np.flatnonzero(~((start >= 0.0) & (start < HOURS_PER_DAY)))
    if bad.size:
        raise ValueError(f"start hour out of range: {float(start[bad[0]])}")


def check_segments(table: "np.ndarray") -> None:
    """Run every record check once over a whole segment table.

    ``NetworkLocation``'s (each address lies inside its prefix),
    ``DaySegment``'s (positive duration, start hour in [0, 24)) and
    ``UserDay``'s (the rows of each user-day run contiguously from hour
    0 to hour 24, to within 1e-6 h). Raises the ``ValueError`` the
    first failing record object would.
    """
    length = table["len"].astype(np.uint64)
    mask = (np.uint64(0xFFFFFFFF) << (np.uint64(32) - length)) & np.uint64(
        0xFFFFFFFF
    )
    outside = np.flatnonzero((table["ip"] & mask) != table["net"])
    if outside.size:
        row = table[outside[0]]
        address = IPv4Address(int(row["ip"]))
        prefix = IPv4Prefix(int(row["net"]), int(row["len"]))
        raise ValueError(f"{address} is not inside {prefix}")
    start, duration = table["start"], table["duration"]
    _check_stays(start, duration)
    if not len(table):
        return
    user, day = table["user"], table["day"]
    first = np.ones(len(table), dtype=bool)
    first[1:] = (user[1:] != user[:-1]) | (day[1:] != day[:-1])
    end = start + duration
    cursor = np.zeros(len(table))
    cursor[1:] = end[:-1]
    cursor[first] = 0.0
    gap = np.flatnonzero(np.abs(start - cursor) > 1e-6)
    if gap.size:
        hour = float(cursor[gap[0]])
        raise ValueError(f"segments must be contiguous: gap at hour {hour:.3f}")
    covered = end[np.append(first[1:], True)]
    short = np.flatnonzero(np.abs(covered - HOURS_PER_DAY) > 1e-6)
    if short.size:
        raise ValueError(
            f"day covers {float(covered[short[0]]):.3f}h, expected 24h"
        )


def _homebody_day(profile: UserProfile, rng: random.Random) -> List[Row]:
    home = profile.home or profile.cellular
    segments: List[Row] = []
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
) -> List[Row]:
    home = profile.home or profile.cellular
    leave = _clamp(rng.gauss(8.3, 0.6), 6.5, 10.5)
    back = _clamp(rng.gauss(17.8, 0.9), leave + 4.0, 22.0)
    segments = [_wifi_segment(home, rng, 0.0, leave)]
    segments.extend(_cellular_segments(profile, rng, leave, back - leave))
    segments.append(_wifi_segment(home, rng, back, HOURS_PER_DAY - back))
    return segments


def _wifi_commuter_day(profile: UserProfile, rng: random.Random) -> List[Row]:
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


def _cellular_only_day(profile: UserProfile, rng: random.Random) -> List[Row]:
    # The whole day on the carrier; overnight the radio holds one
    # address, daytime re-attaches churn it. Occasionally the user hops
    # onto a public WiFi venue for a while.
    overnight_end = _clamp(rng.gauss(7.5, 0.8), 5.0, 9.5)
    night_loc = profile.cellular.attach(rng)
    segments = [(night_loc, 0.0, overnight_end, True)]
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


def _nomad_day(profile: UserProfile, rng: random.Random) -> List[Row]:
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


_DAY_BUILDERS = {
    UserClass.WIFI_HOMEBODY: _homebody_day,
    UserClass.CELLULAR_COMMUTER: _cellular_commuter_day,
    UserClass.WIFI_COMMUTER: _wifi_commuter_day,
    UserClass.CELLULAR_ONLY: _cellular_only_day,
    UserClass.NOMAD: _nomad_day,
}


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
