"""Synthetic NomadLog workload generator.

Builds a population of :class:`~repro.mobility.device.UserProfile`
objects over a synthetic AS topology and simulates their daily
attachments. The defaults are calibrated so the population reproduces
every summary statistic the paper reports about the real NomadLog
trace:

* Fig. 6 — median distinct locations per user-day: 2 ASes, 2 prefixes,
  3 IP addresses; more than 20% of users exceed 10 IP addresses a day;
* Fig. 7 — median transitions per day: ~1 AS, ~3 IPs; average AS
  transitions ranging ~0.25 to ~31.6 across users;
* Fig. 9 — ~40% of user-days spend >=70% of the day at the dominant IP
  and >=85% at the dominant AS; users typically spend ~30% of the day
  away from the dominant IP (§6.2);
* §1/§6.3 — the median user is >=2 AS hops from the dominant AS for a
  noticeable fraction of the day.

The calibration is verified by tests in
``tests/test_mobility_calibration.py``; the experiment harness then
consumes the same generator with the default seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..stats import sequential_sum
from ..topology import ASTopology, Tier
from ..workload.columns import DeviceEventColumns, np, segment_moves
from .device import (
    AccessNetwork,
    UserClass,
    UserProfile,
    segment_table,
    simulate_user_days,
)
from .events import MobilityEvent

__all__ = [
    "MobilityWorkloadConfig",
    "MobilityWorkload",
    "generate_workload",
    "REGION_WEIGHTS",
]

#: Where NomadLog users live: "mostly from the United States, Europe,
#: and South America" (§4). Weights sum to 1.
REGION_WEIGHTS: Dict[str, float] = {
    "us-east": 0.22,
    "us-west": 0.18,
    "us-central": 0.12,
    "eu-west": 0.20,
    "eu-east": 0.08,
    "sa": 0.15,
    "asia-east": 0.03,
    "oceania": 0.02,
}

#: Behavioural class mix (see repro.mobility.device for the classes).
CLASS_WEIGHTS: Dict[UserClass, float] = {
    UserClass.WIFI_HOMEBODY: 0.32,
    UserClass.CELLULAR_COMMUTER: 0.24,
    UserClass.WIFI_COMMUTER: 0.16,
    UserClass.CELLULAR_ONLY: 0.08,
    UserClass.NOMAD: 0.20,
}


@dataclass
class MobilityWorkloadConfig:
    """Knobs for :func:`generate_workload`."""

    num_users: int = 372
    num_days: int = 28
    seed: int = 2014
    carriers_per_region: int = 2
    venues_per_region: int = 6
    region_weights: Dict[str, float] = field(
        default_factory=lambda: dict(REGION_WEIGHTS)
    )
    class_weights: Dict[UserClass, float] = field(
        default_factory=lambda: dict(CLASS_WEIGHTS)
    )
    #: Lognormal sigma of the per-user activity multiplier.
    activity_sigma: float = 0.55
    #: Global multiplier on out-of-home activity — the §8 perturbation
    #: knob ("if the extent of device ... mobility were perturbed by
    #: large factors"). 1.0 reproduces the calibrated population.
    mobility_scale: float = 1.0
    #: Probability a user's home broadband ISP is a customer of their
    #: cellular carrier's network (the same telco sells both, so from a
    #: distant router both attachments are reached via the same transit
    #: next hop — which is why device mobility updates far fewer
    #: routers than the raw AS-transition rate would suggest).
    home_via_carrier_prob: float = 0.75


class MobilityWorkload:
    """A generated population plus its simulated segment table.

    ``segments`` is the :data:`~repro.workload.columns.SEGMENT_DTYPE`
    table of every stay, its ``user`` column indexing ``profiles``.
    The event table (:meth:`as_columns`) is gathered from it on first
    use; a pickle carries the table alone.
    """

    def __init__(
        self,
        profiles: List[UserProfile],
        segments: "np.ndarray",
        topology: ASTopology,
    ):
        self.profiles = profiles
        self.segments = segments
        self.topology = topology
        self._columns: Optional[DeviceEventColumns] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_columns"] = None
        return state

    @property
    def user_ids(self) -> Tuple[str, ...]:
        """The id of each table user, by profile index."""
        return tuple(profile.user_id for profile in self.profiles)

    def all_transitions(self) -> List[MobilityEvent]:
        """Every IP-changing mobility event in the whole trace.

        The event table's :meth:`~repro.workload.DeviceEventColumns.to_events`.
        """
        return self.as_columns().to_events()

    def as_columns(self) -> DeviceEventColumns:
        """Every mobility event as one columnar batch.

        The :class:`~repro.workload.DeviceEventColumns` equivalent of
        :meth:`all_transitions` (same events, same order), built once
        and memoized — the zero-copy input the vectorized evaluators
        reduce over. It is a numpy gather of the segment table's
        consecutive same-user-day rows whose address changes
        (:meth:`~repro.workload.DeviceEventColumns.from_segments`).
        """
        if self._columns is None:
            self._columns = DeviceEventColumns.from_segments(
                self.segments, self.user_ids
            )
        return self._columns

    def num_users(self) -> int:
        """Number of users with at least one simulated day."""
        return len(np.unique(self.segments["user"]))


def _weighted_choice(rng: random.Random, weights: Dict) -> object:
    items = sorted(weights.items(), key=lambda kv: repr(kv[0]))
    total = sequential_sum(w for _, w in items)
    x = rng.random() * total
    acc = 0.0
    for key, w in items:
        acc += w
        if x <= acc:
            return key
    return items[-1][0]


def _pick_carriers(
    topology: ASTopology, region: str, stubs: List[int], count: int
) -> List[AccessNetwork]:
    """Designate regional cellular carriers.

    Carriers are the region's largest *stub* ASes (most address space):
    like real mobile operators they are edge networks — customers of
    the regional transit tier-2s, not transit providers themselves —
    so a phone's home broadband AS and its carrier AS are two or more
    AS hops apart (§6.3.2) even when, seen from a distant router, both
    are reached through the same upstream. Each attach draws from the
    whole carrier pool, which is what makes cellular addresses churn.
    ``stubs`` are the region's stub ASes.
    """
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
    stubs: List[int],
    rng: random.Random,
    under_provider: Optional[int] = None,
) -> AccessNetwork:
    """A sticky WiFi network in one of ``stubs``, a region's stub ASes."""
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


def generate_workload(
    topology: ASTopology, config: Optional[MobilityWorkloadConfig] = None
) -> MobilityWorkload:
    """Generate the full synthetic NomadLog workload.

    Traced as span ``mobility.generate``, whose counter
    ``mobility.generate.events`` adds the workload's IP-changing moves.
    """
    with obs.span("mobility.generate"):
        profiles, segments = _simulate(
            topology, config or MobilityWorkloadConfig()
        )
        obs.incr("mobility.generate.events", len(segment_moves(segments)))
    return MobilityWorkload(profiles, segments, topology)


def _simulate(
    topology: ASTopology, cfg: MobilityWorkloadConfig
) -> Tuple[List[UserProfile], "np.ndarray"]:
    """The population of ``cfg`` and its checked segment table."""
    rng = random.Random(cfg.seed)

    stubs: Dict[str, List[int]] = {}
    carriers: Dict[str, List[AccessNetwork]] = {}
    venues: Dict[str, List[AccessNetwork]] = {}
    for region in sorted(cfg.region_weights):
        stubs[region] = topology.ases_in_region(region, Tier.STUB)
        carriers[region] = _pick_carriers(
            topology, region, stubs[region], cfg.carriers_per_region
        )
        venues[region] = [
            _pick_stub_network(topology, stubs[region], rng)
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
                topology, stubs[region], rng, under_provider=home_provider
            )
        )
        work_provider = (
            carrier_transit if rng.random() < cfg.home_via_carrier_prob else None
        )
        work = (
            _pick_stub_network(
                topology, stubs[region], rng, under_provider=work_provider
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

    segments = segment_table(
        (user, day, rows)
        for user, profile in enumerate(profiles)
        for day, rows in enumerate(
            simulate_user_days(profile, cfg.num_days, rng)
        )
    )
    return profiles, segments
