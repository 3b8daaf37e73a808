"""Multihomed device mobility (§3.3 applied to devices).

§3.3 develops the multihomed update-cost model "in the context of
content mobility, but note that it applies to both device and content
mobility" — and modern phones *are* multihomed: the cellular radio
stays attached while the device uses WiFi. This module turns one
device's single-attachment segment rows into a *multihomed address-set
timeline*: during WiFi segments of a dual-radio device, the set
contains both the WiFi address and the still-held cellular address.

The §3.3.1 strategies then apply verbatim: with best-port forwarding, a
router tracking the device by its *set* of addresses rarely changes its
best port when the WiFi side flaps, because the cellular anchor —
usually the stable, carrier-reached side — persists. That is the device
analogue of the paper's content finding, and the reason addressing-
assisted multipath designs tame device mobility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..net import IPv4Address
from ..workload.columns import np

__all__ = [
    "MultihomedTimeline",
    "build_multihomed_timeline",
]


@dataclass
class MultihomedTimeline:
    """``Addrs(device, t)`` over a whole trace, as change points."""

    user_id: str
    dual_radio: bool
    changes: List[Tuple[float, FrozenSet[IPv4Address]]]


def build_multihomed_timeline(
    user_id: str,
    rows: "np.ndarray",
    dual_radio: bool,
    cellular_hold_hours: float = 2.0,
) -> MultihomedTimeline:
    """Overlay a persistent cellular attachment onto a device's days.

    ``rows`` are one user's :data:`~repro.workload.columns.SEGMENT_DTYPE`
    rows; days are taken in day order, each day's rows in table order.
    For a dual-radio device, the most recent cellular address remains
    in the set during WiFi segments for up to ``cellular_hold_hours``
    after the device left cellular (idle radios eventually detach).
    Single-radio devices produce the singleton-set timeline.
    """
    if not len(rows):
        raise ValueError("need at least one segment")
    users = np.unique(rows["user"]).tolist()
    if len(users) != 1:
        raise ValueError(f"segments span multiple users: {users}")
    rows = rows[np.argsort(rows["day"], kind="stable")]

    changes: List[Tuple[float, FrozenSet[IPv4Address]]] = []
    addresses: Dict[int, IPv4Address] = {}
    last_cellular: Optional[Tuple[float, IPv4Address]] = None

    def emit(hour: float, addrs: FrozenSet[IPv4Address]) -> None:
        if changes and changes[-1][1] == addrs:
            return
        if changes and changes[-1][0] == hour:
            changes[-1] = (hour, addrs)
            if len(changes) >= 2 and changes[-2][1] == addrs:
                changes.pop()
            return
        changes.append((hour, addrs))

    for day, start_hour, duration, ip, cellular in zip(*(
        rows[name].tolist()
        for name in ("day", "start", "duration", "ip", "cellular")
    )):
        start = day * 24.0 + start_hour
        end = start + duration
        address = addresses.get(ip)
        if address is None:
            address = addresses[ip] = IPv4Address(ip)
        if cellular:
            last_cellular = (end, address)
            emit(start, frozenset({address}))
            continue
        if dual_radio and last_cellular is not None:
            left_cellular_at, cellular_address = last_cellular
            expiry = left_cellular_at + cellular_hold_hours
            if start < expiry:
                emit(start, frozenset({address, cellular_address}))
                if expiry < end:
                    # The idle radio detaches mid-segment: the
                    # cellular address drops out of the set.
                    emit(expiry, frozenset({address}))
                continue
        emit(start, frozenset({address}))
    return MultihomedTimeline(
        user_id=user_id, dual_radio=dual_radio, changes=changes
    )
