"""Per-day and per-user mobility statistics (Figs. 6, 7, and 9).

These reductions turn a workload's segment table
(:data:`~repro.workload.columns.SEGMENT_DTYPE`) into exactly the series
the paper plots: per-user averages of distinct network locations
visited per day (Fig. 6), per-user averages of transitions per day
(Fig. 7), and per-user-day fractions of time at the dominant location
(Fig. 9). A *user-day* is one run of consecutive same-user, same-day
rows, numbered in table order.

Every hour total is an ``np.bincount`` with the rows' durations as
weights, which adds them in table order, so each total is the float a
per-segment loop over the day would reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

from ..workload.columns import np, unique_with_inverse
from .events import HOURS_PER_DAY

__all__ = [
    "DayStats",
    "day_stats",
    "Residence",
    "residence",
    "user_day_runs",
    "UserAverages",
    "user_averages",
    "dominant_residence_samples",
    "cdf_points",
    "percentile",
]


def user_day_runs(segments: "np.ndarray") -> "np.ndarray":
    """Each row's user-day: the index of its run of same-user-day rows."""
    user, day = segments["user"], segments["day"]
    run = np.zeros(len(segments), dtype=np.int64)
    np.cumsum((user[1:] != user[:-1]) | (day[1:] != day[:-1]), out=run[1:])
    return run


class Residence(NamedTuple):
    """The hours each user-day spends at each of its locations.

    One entry per (user-day, location) group, sorted by user-day and
    then by location key.
    """

    day: "np.ndarray"  # each group's user-day
    key: "np.ndarray"  # each group's location key
    first: "np.ndarray"  # each group's first table row
    hours: "np.ndarray"  # each group's hours, added in table order
    start: "np.ndarray"  # each user-day's first group

    def top(self) -> "np.ndarray":
        """Each user-day's most hours at one location."""
        return np.maximum.reduceat(self.hours, self.start)

    def dominant(self, rank: "np.ndarray") -> "np.ndarray":
        """Each user-day's group with the most hours.

        A tie goes to the group with the least ``rank`` (one value per
        group): ``key`` for the lowest key, ``first`` for the location
        seen first.
        """
        counts = np.diff(np.append(self.start, len(self.day)))
        tied = np.flatnonzero(self.hours == np.repeat(self.top(), counts))
        tied = tied[np.lexsort((rank[tied], self.day[tied]))]
        return tied[np.diff(self.day[tied], prepend=-1) != 0]


def residence(segments: "np.ndarray", key: "np.ndarray") -> Residence:
    """Hours per user-day and location of ``segments``.

    ``key`` names each row's location by one integer: its address, its
    AS, or its prefix (:func:`_prefix_key`).
    """
    run = user_day_runs(segments)
    keys, kid = unique_with_inverse(key)
    groups, first, group = np.unique(
        run * len(keys) + kid, return_index=True, return_inverse=True
    )
    day = groups // len(keys)
    return Residence(
        day=day,
        key=keys[groups % len(keys)],
        first=first,
        hours=np.bincount(
            group.reshape(-1), weights=segments["duration"],
            minlength=len(groups),
        ),
        start=np.flatnonzero(np.diff(day, prepend=-1)),
    )


def _prefix_key(segments: "np.ndarray") -> "np.ndarray":
    """Each row's covering prefix as one integer (network, length)."""
    return (segments["net"].astype(np.int64) << 6) | segments["len"]


class DayStats(NamedTuple):
    """Network-mobility statistics of each user-day, as columns.

    Entry ``i`` of every column describes the table's ``i``-th
    user-day, and ``user`` is its table user.
    """

    user: "np.ndarray"
    distinct_ips: "np.ndarray"
    distinct_prefixes: "np.ndarray"
    distinct_ases: "np.ndarray"
    ip_transitions: "np.ndarray"
    prefix_transitions: "np.ndarray"
    as_transitions: "np.ndarray"
    dominant_ip_fraction: "np.ndarray"
    dominant_prefix_fraction: "np.ndarray"
    dominant_as_fraction: "np.ndarray"


def day_stats(segments: "np.ndarray") -> DayStats:
    """All per-day statistics of a segment table, one entry per user-day."""
    run = user_day_runs(segments)
    firsts = np.flatnonzero(np.diff(run, prepend=-1))
    same = run[1:] == run[:-1]
    keys = (segments["ip"], _prefix_key(segments), segments["asn"])
    stays = [residence(segments, key) for key in keys]
    distinct = [np.diff(np.append(s.start, len(s.day))) for s in stays]
    moves = [
        np.bincount(run[1:][same & (key[1:] != key[:-1])],
                    minlength=len(firsts))
        for key in keys
    ]
    fractions = [s.top() / HOURS_PER_DAY for s in stays]
    return DayStats(segments["user"][firsts], *distinct, *moves, *fractions)


@dataclass(frozen=True)
class UserAverages:
    """Per-user averages across days — the Fig. 6/7 sample points."""

    user_id: str
    num_days: int
    avg_distinct_ips: float
    avg_distinct_prefixes: float
    avg_distinct_ases: float
    avg_ip_transitions: float
    avg_prefix_transitions: float
    avg_as_transitions: float


def user_averages(
    segments: "np.ndarray", users: Sequence[str]
) -> List[UserAverages]:
    """Average the daily statistics of each user, sorted by user id.

    ``users[i]`` names table user ``i``; users without a day are left
    out.
    """
    stats = day_stats(segments)
    counts = (
        stats.distinct_ips, stats.distinct_prefixes, stats.distinct_ases,
        stats.ip_transitions, stats.prefix_transitions, stats.as_transitions,
    )
    days = np.bincount(stats.user, minlength=len(users)).tolist()
    # Weighted sums come back as floats, exact for these counts.
    totals = [
        np.bincount(stats.user, weights=count, minlength=len(users))
        .astype(np.int64).tolist()
        for count in counts
    ]
    present = [u for u, n in enumerate(days) if n]
    return [
        UserAverages(
            users[u], days[u], *(total[u] / days[u] for total in totals)
        )
        for u in sorted(present, key=users.__getitem__)
    ]


def dominant_residence_samples(
    segments: "np.ndarray",
) -> Tuple[List[float], List[float], List[float]]:
    """Fig. 9 samples: (ip, prefix, AS) dominant fractions per user-day."""
    stats = day_stats(segments)
    return (
        stats.dominant_ip_fraction.tolist(),
        stats.dominant_prefix_fraction.tolist(),
        stats.dominant_as_fraction.tolist(),
    )


# Canonical implementations live in :mod:`repro.stats`; re-exported
# here because the Fig. 6/7/9 reductions predate that module.
from ..stats import cdf_points, percentile  # noqa: E402,F401
