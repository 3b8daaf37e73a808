"""Distributed vantage-point measurement of content mobility (§7.1).

The paper resolves every domain once per hour from 74 PlanetLab nodes
"chosen from as many different countries as possible and all continents
(except Africa where PlanetLab nodes were unavailable)" over a
three-week window, and a central controller merges the per-vantage
results into one address set per domain per hour.

This module reproduces that pipeline over the synthetic substrate: a
:class:`VantageFleet` of 74 nodes spread over the topology's regions
(Africa excluded), and a :class:`MeasurementController` that builds the
merged hourly ``Addrs(d, t)`` timeline for every name in a domain
universe. Coverage matters: CDN edge clusters in regions without a
vantage node are never observed, exactly as a real Africa-only Akamai
cluster would have been invisible to the paper's measurement.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .. import obs
from ..content import (
    AddressTimeline,
    DomainUniverse,
    HostingDirectory,
    build_timeline,
)
from ..net import ContentName
from ..topology import ASTopology, Tier

__all__ = [
    "VantageNode",
    "VantageFleet",
    "MeasurementConfig",
    "ContentMeasurement",
    "MeasurementController",
]

#: Region shares for the 74 nodes; Africa deliberately absent.
_VANTAGE_REGION_SHARES: Dict[str, int] = {
    "us-east": 12,
    "us-west": 10,
    "us-central": 6,
    "eu-west": 14,
    "eu-east": 8,
    "sa": 6,
    "asia-east": 8,
    "asia-south": 5,
    "oceania": 3,
    "indian-ocean": 2,
}


@dataclass(frozen=True)
class VantageNode:
    """One PlanetLab-style vantage point."""

    node_id: str
    region: str
    asn: int


class VantageFleet:
    """The distributed set of measurement nodes."""

    def __init__(self, nodes: Sequence[VantageNode]):
        if not nodes:
            raise ValueError("a vantage fleet needs at least one node")
        self.nodes = list(nodes)

    @classmethod
    def planetlab_like(
        cls, topology: ASTopology, total: int = 74, seed: int = 2014
    ) -> "VantageFleet":
        """Build the paper's fleet: 74 nodes, all regions except Africa."""
        rng = random.Random(seed)
        shares = dict(_VANTAGE_REGION_SHARES)
        scale = total / sum(shares.values())
        nodes: List[VantageNode] = []
        counter = 0
        for region in sorted(shares):
            count = max(1, round(shares[region] * scale))
            stubs = topology.ases_in_region(region, Tier.STUB)
            for _ in range(count):
                if len(nodes) >= total:
                    break
                asn = rng.choice(stubs)
                nodes.append(
                    VantageNode(
                        node_id=f"pl{counter:03d}", region=region, asn=asn
                    )
                )
                counter += 1
        # Round-off: top up from the largest regions.
        while len(nodes) < total:
            region = "eu-west" if len(nodes) % 2 else "us-east"
            asn = rng.choice(topology.ases_in_region(region, Tier.STUB))
            nodes.append(
                VantageNode(node_id=f"pl{counter:03d}", region=region, asn=asn)
            )
            counter += 1
        return cls(nodes[:total])

    def regions(self) -> Set[str]:
        """Regions with at least one vantage node (the coverage set)."""
        return {n.region for n in self.nodes}

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class MeasurementConfig:
    """Knobs for the measurement campaign (§7.1 defaults: 21 days)."""

    days: int = 21
    seed: int = 2014

    @property
    def hours(self) -> int:
        """Total hourly polls per domain."""
        return self.days * 24


class ContentMeasurement:
    """The controller's merged output: one timeline per name."""

    def __init__(
        self,
        timelines: Dict[ContentName, AddressTimeline],
        fleet: VantageFleet,
        config: MeasurementConfig,
    ):
        self.timelines = timelines
        self.fleet = fleet
        self.config = config

    def timeline(self, name: ContentName) -> AddressTimeline:
        """The merged ``Addrs(d, t)`` timeline for ``name``."""
        return self.timelines[name]

    def names(self) -> List[ContentName]:
        """All measured names."""
        return sorted(self.timelines)

    def daily_event_counts(self) -> Dict[ContentName, float]:
        """Average mobility events per day, per name (Fig. 11a series)."""
        out = {}
        for name, tl in self.timelines.items():
            counts = tl.daily_event_counts()
            out[name] = sum(counts) / len(counts)
        return out


class MeasurementController:
    """Runs the (simulated) hourly measurement campaign."""

    def __init__(
        self,
        topology: ASTopology,
        directory: HostingDirectory,
        fleet: Optional[VantageFleet] = None,
        config: Optional[MeasurementConfig] = None,
    ):
        self.topology = topology
        self.directory = directory
        self.config = config or MeasurementConfig()
        self.fleet = fleet or VantageFleet.planetlab_like(topology)

    def _name_rng(self, name: ContentName) -> random.Random:
        """Per-name RNG: independent of measurement order."""
        digest = zlib.crc32(
            f"{self.config.seed}|{name.to_domain()}".encode()
        )
        return random.Random(digest)

    def measure(self, names: Iterable[ContentName]) -> ContentMeasurement:
        """Measure the given names for the configured period."""
        coverage = self.fleet.regions()
        timelines: Dict[ContentName, AddressTimeline] = {}
        with obs.span("content.timelines"):
            for name in names:
                model = self.directory.model_for(name)
                timelines[name] = build_timeline(
                    name,
                    model,
                    hours=self.config.hours,
                    rng=self._name_rng(name),
                    coverage=coverage,
                    topology=self.topology,
                )
            obs.incr(
                "content.timelines.change_points",
                sum(tl.num_changes() + 1 for tl in timelines.values()),
            )
        return ContentMeasurement(timelines, self.fleet, self.config)

    def measure_universe(
        self, universe: DomainUniverse, popular: bool = True
    ) -> ContentMeasurement:
        """Measure the full popular (or unpopular) set of a universe."""
        names = (
            universe.popular_names() if popular else universe.unpopular_names()
        )
        return self.measure(names)
