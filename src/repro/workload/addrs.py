"""Columnar ``Addrs(d, t)`` — one name's address timeline as a matrix.

The content methodology (§3.3, §7.1) is built on ``Addrs(d, t)``, the
set of addresses a name resolves to at each measurement hour. This
module holds it as a boolean *membership matrix* over the name's
address universe — rows are change points, columns are the distinct
addresses ever observed — which is the form a content timeline
(:class:`repro.content.AddressTimeline`) stores and what lets the
update-cost evaluators reduce a whole timeline per router with a
handful of numpy operations instead of a per-event Python replay.
"""

from __future__ import annotations

from typing import Tuple

from . import require_numpy

np = require_numpy()

__all__ = ["AddrsMatrix"]


class AddrsMatrix:
    """One name's ``Addrs(d, t)`` timeline in columnar form.

    ``membership[i, j]`` is True when address ``addrs[j]`` is in the
    set at change point ``i``; row 0 is the initial set and rows
    ``1..k`` correspond one-to-one (in time order) to the timeline's
    mobility events. ``addrs`` is sorted, so the matrix for a given
    timeline is canonical.
    """

    def __init__(
        self,
        name,
        hours: "np.ndarray",
        addrs: Tuple,
        membership: "np.ndarray",
    ):
        if membership.shape != (len(hours), len(addrs)):
            raise ValueError(
                f"membership shape {membership.shape} != "
                f"({len(hours)}, {len(addrs)})"
            )
        self.name = name
        self.hours = hours
        self.addrs = tuple(addrs)
        self.membership = membership

    @classmethod
    def from_changes(cls, name, points) -> "AddrsMatrix":
        """Build the matrix from ``(hour, address set)`` change points.

        ``hours`` keeps the points' number type: integers for a content
        timeline's whole hours, float64 for a device's fractional ones.
        """
        addrs = sorted(frozenset().union(*(s for _, s in points)))
        index = {addr: j for j, addr in enumerate(addrs)}
        hours = np.array([h for h, _ in points])
        membership = np.zeros((len(points), len(addrs)), dtype=bool)
        for i, (_, addr_set) in enumerate(points):
            for addr in addr_set:
                membership[i, index[addr]] = True
        return cls(name, hours, tuple(addrs), membership)

    @classmethod
    def from_rows(cls, name, hours, addrs, rows) -> "AddrsMatrix":
        """Build the matrix from bitmask rows over distinct ``addrs``.

        Bit ``j`` of the int ``rows[i]`` says whether ``addrs[j]`` is in
        the set at change point ``i``. Only the columns some row holds
        are kept, sorted by address, so the result equals
        :meth:`from_changes` over the same sets.
        """
        width = (len(addrs) + 7) // 8
        packed = np.frombuffer(
            b"".join(row.to_bytes(width, "little") for row in rows),
            dtype=np.uint8,
        ).reshape(len(rows), width)
        bits = np.unpackbits(
            packed, axis=1, count=len(addrs), bitorder="little"
        ).view(bool)
        held = np.flatnonzero(bits.any(axis=0))
        held = held[np.argsort([addrs[j].value for j in held.tolist()])]
        return cls(
            name,
            np.array(hours),
            tuple(addrs[j] for j in held.tolist()),
            bits[:, held],
        )

    @classmethod
    def from_timeline(cls, timeline) -> "AddrsMatrix":
        """Build the matrix for one ``AddressTimeline``."""
        return cls.from_changes(timeline.name, timeline.change_points())

    @property
    def num_events(self) -> int:
        """Mobility events in the timeline (rows minus the initial set)."""
        return len(self.hours) - 1

    @property
    def num_addrs(self) -> int:
        """Distinct addresses ever observed for the name."""
        return len(self.addrs)

    def as_columns(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """Zero-copy ``(hours, membership)`` views."""
        return self.hours, self.membership

    def set_at_row(self, row: int) -> frozenset:
        """The object-form address set at change point ``row``."""
        present = np.nonzero(self.membership[row])[0]
        return frozenset(self.addrs[j] for j in present.tolist())

    def __repr__(self) -> str:
        return (
            f"AddrsMatrix({self.name!r}, {self.num_events} events, "
            f"{self.num_addrs} addrs)"
        )
