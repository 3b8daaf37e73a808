"""Columnar ``Addrs(d, t)`` — one name's address timeline as a matrix.

The content methodology (§3.3, §7.1) is built on ``Addrs(d, t)``, the
set of addresses a name resolves to at each measurement hour. This
module holds it as a boolean *membership matrix* over the name's
address universe — rows are change points, columns are the distinct
32-bit address values ever observed, sorted — which is the form a
content timeline (:class:`repro.content.AddressTimeline`) and a
multihomed device timeline store, and what lets the update-cost
evaluators reduce a whole timeline per router with a handful of numpy
operations instead of a per-event Python replay. Every builder emits
bitmask rows, one :class:`AddrsColumns` bit per distinct address value,
and :meth:`AddrsMatrix.from_rows` unpacks them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from . import require_numpy

np = require_numpy()

__all__ = ["AddrsColumns", "AddrsMatrix"]


class AddrsColumns:
    """One bitmask column per distinct address value, in first-seen
    order: the rows :meth:`AddrsMatrix.from_rows` unpacks."""

    def __init__(self) -> None:
        #: ``values[j]`` is the address value of column ``j`` (bit
        #: ``1 << j``).
        self.values: List[int] = []
        self._bits: Dict[int, int] = {}

    def bits(self, values: Sequence[int]) -> List[int]:
        """Each value's column bit; an unseen value gets a column."""
        known = self._bits
        for value in values:
            if value not in known:
                known[value] = 1 << len(self.values)
                self.values.append(value)
        return [known[value] for value in values]


class AddrsMatrix:
    """One name's ``Addrs(d, t)`` timeline in columnar form.

    ``membership[i, j]`` is True when address value ``addrs[j]`` is in
    the set at change point ``i``; row 0 is the initial set and rows
    ``1..k`` correspond one-to-one (in time order) to the timeline's
    mobility events. ``addrs`` is a sorted int64 array, so the matrix
    for a given timeline is canonical.
    """

    def __init__(
        self,
        name,
        hours: "np.ndarray",
        addrs: "np.ndarray",
        membership: "np.ndarray",
    ):
        if membership.shape != (len(hours), len(addrs)):
            raise ValueError(
                f"membership shape {membership.shape} != "
                f"({len(hours)}, {len(addrs)})"
            )
        self.name = name
        self.hours = hours
        self.addrs = addrs
        self.membership = membership

    @classmethod
    def from_rows(cls, name, hours, values, rows) -> "AddrsMatrix":
        """Build the matrix from bitmask rows over distinct address values.

        Bit ``j`` of the int ``rows[i]`` says whether ``values[j]`` is
        in the set at change point ``i``. Only the columns some row
        holds are kept, sorted by value. ``hours`` keeps its number
        type: integers for a content timeline's whole hours, float64
        for a device's fractional ones.
        """
        values = np.asarray(values, dtype=np.int64)
        width = (len(values) + 7) // 8
        packed = np.frombuffer(
            b"".join(row.to_bytes(width, "little") for row in rows),
            dtype=np.uint8,
        ).reshape(len(rows), width)
        bits = np.unpackbits(
            packed, axis=1, count=len(values), bitorder="little"
        ).view(bool)
        held = np.flatnonzero(bits.any(axis=0))
        held = held[np.argsort(values[held])]
        return cls(name, np.array(hours), values[held], bits[:, held])

    @property
    def num_events(self) -> int:
        """Mobility events in the timeline (rows minus the initial set)."""
        return len(self.hours) - 1

    @property
    def num_addrs(self) -> int:
        """Distinct addresses ever observed for the name."""
        return len(self.addrs)

    def __repr__(self) -> str:
        return (
            f"AddrsMatrix({self.name!r}, {self.num_events} events, "
            f"{self.num_addrs} addrs)"
        )
