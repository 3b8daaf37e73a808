"""Record types for device network mobility.

A *network location* is the triple the paper's analysis operates on —
public IP address, its covering (announced) prefix, and the origin AS —
because NomadLog characterizes mobility across *network* attachment
points, not physical movement (§4). A user who roams between base
stations while keeping one IP is stationary here; a user who hops from
WiFi to LTE while sitting still is mobile.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import IPv4Address, IPv4Prefix

__all__ = [
    "NetworkLocation",
    "MobilityEvent",
    "HOURS_PER_DAY",
]

HOURS_PER_DAY = 24.0


@dataclass(frozen=True)
class NetworkLocation:
    """A point of attachment to the Internet."""

    ip: IPv4Address
    prefix: IPv4Prefix
    asn: int

    def __post_init__(self) -> None:
        if not self.prefix.contains(self.ip):
            raise ValueError(f"{self.ip} is not inside {self.prefix}")


@dataclass(frozen=True)
class MobilityEvent:
    """A device moving from one network location to another (Fig. 1a)."""

    user_id: str
    day: int
    hour: float
    old: NetworkLocation
    new: NetworkLocation

    def changes_prefix(self) -> bool:
        """True if the covering prefix changed."""
        return self.old.prefix != self.new.prefix

    def changes_as(self) -> bool:
        """True if the origin AS changed."""
        return self.old.asn != self.new.asn

