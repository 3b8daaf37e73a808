"""Multihomed device mobility (§3.3 applied to devices).

§3.3 develops the multihomed update-cost model "in the context of
content mobility, but note that it applies to both device and content
mobility" — and modern phones *are* multihomed: the cellular radio
stays attached while the device uses WiFi. This module turns one
device's single-attachment segment rows into a *multihomed address-set
timeline*, an :class:`~repro.workload.AddrsMatrix` built from bitmask
rows over the segments' address values: during WiFi segments of a
dual-radio device, the set contains both the WiFi address and the
still-held cellular address.

The §3.3.1 strategies then apply verbatim: with best-port forwarding, a
router tracking the device by its *set* of addresses rarely changes its
best port when the WiFi side flaps, because the cellular anchor —
usually the stable, carrier-reached side — persists. That is the device
analogue of the paper's content finding, and the reason addressing-
assisted multipath designs tame device mobility.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..workload import AddrsColumns, AddrsMatrix
from ..workload.columns import np

__all__ = ["build_multihomed_timeline"]


def build_multihomed_timeline(
    user_id: str,
    rows: "np.ndarray",
    dual_radio: bool,
    cellular_hold_hours: float = 2.0,
) -> AddrsMatrix:
    """Overlay a persistent cellular attachment onto a device's days.

    ``rows`` are one user's :data:`~repro.workload.columns.SEGMENT_DTYPE`
    rows; days are taken in day order, each day's rows in table order.
    For a dual-radio device, the most recent cellular address remains
    in the set during WiFi segments for up to ``cellular_hold_hours``
    after the device left cellular (idle radios eventually detach).
    Single-radio devices produce the singleton-set timeline.

    Returns ``Addrs(device, t)`` as the matrix named ``user_id``, with
    float64 change hours since the trace start. Each distinct ``ip``
    gets one bit of a row, in first-seen order. A set emitted at the
    hour of the last change point replaces that point, which is dropped
    when the set equals the one before it.
    """
    if not len(rows):
        raise ValueError("need at least one segment")
    users = np.unique(rows["user"]).tolist()
    if len(users) != 1:
        raise ValueError(f"segments span multiple users: {users}")
    rows = rows[np.argsort(rows["day"], kind="stable")]

    hours: List[float] = []
    sets: List[int] = []
    columns = AddrsColumns()
    last_cellular: Optional[Tuple[float, int]] = None

    def emit(hour: float, addrs: int) -> None:
        if sets and sets[-1] == addrs:
            return
        if sets and hours[-1] == hour:
            sets[-1] = addrs
            if len(sets) >= 2 and sets[-2] == addrs:
                hours.pop()
                sets.pop()
            return
        hours.append(hour)
        sets.append(addrs)

    for day, start_hour, duration, bit, cellular in zip(
        *(rows[name].tolist() for name in ("day", "start", "duration")),
        columns.bits(rows["ip"].tolist()),
        rows["cellular"].tolist(),
    ):
        start = day * 24.0 + start_hour
        end = start + duration
        if cellular:
            last_cellular = (end, bit)
            emit(start, bit)
            continue
        if dual_radio and last_cellular is not None:
            left_cellular_at, cellular_bit = last_cellular
            expiry = left_cellular_at + cellular_hold_hours
            if start < expiry:
                emit(start, bit | cellular_bit)
                if expiry < end:
                    # The idle radio detaches mid-segment: the
                    # cellular address drops out of the set.
                    emit(expiry, bit)
                continue
        emit(start, bit)
    return AddrsMatrix.from_rows(user_id, hours, columns.values, sets)
