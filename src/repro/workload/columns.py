"""The device-mobility tables: one structured array each.

:data:`SEGMENT_DTYPE` is the layout of a mobility workload's segment
table, one row per stay of a device at one network location. The event
table is gathered from it: :class:`DeviceEventColumns` holds every
field of a :class:`~repro.mobility.MobilityEvent` — time, user, old/new
address, covering prefix, and origin AS — as columns of one numpy
structured array, and :meth:`DeviceEventColumns.from_segments` fills
it from the consecutive segment rows of one user-day whose address
changes. The evaluators reduce over the event axis without
materializing a single Python object. :meth:`DeviceEventColumns.to_events`
rebuilds the *exact* original events, which the hypothesis round-trip
test pins down; it builds the whole list in one batch, and iteration,
indexing and :meth:`DeviceEventColumns.event` go through it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from . import require_numpy

np = require_numpy()

__all__ = [
    "DeviceEventColumns",
    "EventColumns",
    "EVENT_DTYPE",
    "SEGMENT_DTYPE",
    "segment_moves",
]

#: One row per mobility event. ``user`` indexes the interned user-id
#: table; addresses and prefix networks are the raw 32-bit values the
#: :mod:`repro.net` types wrap, so views rebuild them losslessly.
EVENT_DTYPE = np.dtype(
    [
        ("user", np.int32),
        ("day", np.int32),
        ("hour", np.float64),
        ("old_ip", np.uint32),
        ("old_net", np.uint32),
        ("old_len", np.uint8),
        ("old_asn", np.int64),
        ("new_ip", np.uint32),
        ("new_net", np.uint32),
        ("new_len", np.uint8),
        ("new_asn", np.int64),
    ]
)

#: One row per stay of a device at one network location: its user-day,
#: start hour, duration, address, covering prefix, origin AS and radio.
#: ``user`` indexes the workload's profiles; rows of one user-day are
#: contiguous and in time order.
SEGMENT_DTYPE = np.dtype(
    [
        ("user", np.int32),
        ("day", np.int32),
        ("start", np.float64),
        ("duration", np.float64),
        ("ip", np.uint32),
        ("net", np.uint32),
        ("len", np.uint8),
        ("asn", np.int64),
        ("cellular", np.bool_),
    ]
)


def segment_moves(segments: "np.ndarray") -> "np.ndarray":
    """Rows of a segment table whose next row is a move.

    Row ``i`` is returned when row ``i + 1`` belongs to the same user
    and day and holds another address: the pair is one mobility event.
    """
    user, day, ip = segments["user"], segments["day"], segments["ip"]
    return np.flatnonzero(
        (ip[1:] != ip[:-1]) & (user[1:] == user[:-1]) & (day[1:] == day[:-1])
    )


class EventColumns(NamedTuple):
    """Zero-copy column views over one event table (the batch API)."""

    time: "np.ndarray"  # event hour within its day (float64)
    day: "np.ndarray"  # day index (int32)
    user: "np.ndarray"  # index into DeviceEventColumns.users (int32)
    from_as: "np.ndarray"  # origin AS before the move (int64)
    to_as: "np.ndarray"  # origin AS after the move (int64)
    from_ip: "np.ndarray"  # 32-bit address value before the move
    to_ip: "np.ndarray"  # 32-bit address value after the move


class DeviceEventColumns:
    """A batch of device mobility events in columnar form.

    Rows preserve the order of the event list the table was built
    from, so scalar replay of :meth:`to_events` and vectorized
    reduction over the columns see the same sequence — the property
    the bit-identical-digests guarantee rests on.
    """

    #: Bumped when :data:`EVENT_DTYPE` or the interning scheme changes,
    #: so content-addressed cache entries can never deliver an
    #: incompatible layout to newer code.
    LAYOUT_VERSION = 1

    def __init__(self, table: "np.ndarray", users: Tuple[str, ...]):
        if table.dtype != EVENT_DTYPE:
            raise ValueError(
                f"event table dtype mismatch: {table.dtype} != {EVENT_DTYPE}"
            )
        self.table = table
        self.users = tuple(users)

    # -- construction --------------------------------------------------

    @classmethod
    def from_events(cls, events) -> "DeviceEventColumns":
        """Build the table from an iterable of ``MobilityEvent``."""
        return cls.from_moves(
            [(e.user_id, e.day, e.hour, e.old, e.new) for e in events]
        )

    @classmethod
    def from_moves(cls, moves: Sequence[tuple]) -> "DeviceEventColumns":
        """Build the table column by column from move tuples.

        Each move is ``(user_id, day, hour, old, new)``, with ``old`` and
        ``new`` the :class:`~repro.mobility.NetworkLocation` left and
        reached; rows keep the order of ``moves``, and users are interned
        in order of first appearance.
        """
        table = np.empty(len(moves), dtype=EVENT_DTYPE)
        user_index: Dict[str, int] = {}
        table["user"] = [
            user_index.setdefault(move[0], len(user_index)) for move in moves
        ]
        table["day"] = [move[1] for move in moves]
        table["hour"] = [move[2] for move in moves]
        for side, field in (("old", 3), ("new", 4)):
            locations = [move[field] for move in moves]
            table[f"{side}_ip"] = [loc.ip.value for loc in locations]
            table[f"{side}_net"] = [loc.prefix.network for loc in locations]
            table[f"{side}_len"] = [loc.prefix.length for loc in locations]
            table[f"{side}_asn"] = [loc.asn for loc in locations]
        return cls(table, tuple(user_index))

    @classmethod
    def from_segments(
        cls, segments: "np.ndarray", users: Sequence[str]
    ) -> "DeviceEventColumns":
        """The events of a :data:`SEGMENT_DTYPE` table, gathered.

        Each event is a pair of consecutive rows found by
        :func:`segment_moves`, timed at the second row's start. Rows
        keep table order, and users (``users[i]`` names table user
        ``i``) are interned in order of first event.
        """
        old = segment_moves(segments)
        new = old + 1
        present, first, inverse = np.unique(
            segments["user"][new], return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order))
        table = np.empty(len(old), dtype=EVENT_DTYPE)
        table["user"] = rank[inverse.reshape(-1)]
        table["day"] = segments["day"][new]
        table["hour"] = segments["start"][new]
        for side, rows in (("old", old), ("new", new)):
            for field in ("ip", "net", "len", "asn"):
                table[f"{side}_{field}"] = segments[field][rows]
        return cls(table, tuple(users[i] for i in present[order]))

    @classmethod
    def empty(cls) -> "DeviceEventColumns":
        """A zero-event table."""
        return cls(np.empty(0, dtype=EVENT_DTYPE), ())

    # -- batch accessors ----------------------------------------------

    def as_columns(self) -> EventColumns:
        """Zero-copy views of the core columns (no objects built)."""
        t = self.table
        return EventColumns(
            time=t["hour"],
            day=t["day"],
            user=t["user"],
            from_as=t["old_asn"],
            to_as=t["new_asn"],
            from_ip=t["old_ip"],
            to_ip=t["new_ip"],
        )

    def days(self) -> "np.ndarray":
        """Sorted distinct day indices with at least one event."""
        return np.unique(self.table["day"])

    # -- object views -------------------------------------------------

    def event(self, index: int):
        """Materialize row ``index`` as the original ``MobilityEvent``."""
        row = DeviceEventColumns(self.table[[index]], self.users)
        return row.to_events()[0]

    def to_events(self) -> List:
        """The full object event list this table round-trips to.

        Built from ``tolist()`` columns; the events share one
        ``NetworkLocation`` per distinct (address, prefix, AS), and the
        locations one ``IPv4Prefix`` per distinct prefix.
        """
        from ..mobility.events import MobilityEvent, NetworkLocation
        from ..net import IPv4Address, IPv4Prefix

        columns = [self.table[name].tolist() for name in EVENT_DTYPE.names]
        old, new = list(zip(*columns[3:7])), list(zip(*columns[7:]))
        locations = dict.fromkeys(old)
        locations.update(dict.fromkeys(new))
        prefixes: Dict[tuple, IPv4Prefix] = {}
        for key in locations:
            ip, net, length, asn = key
            prefix = prefixes.get((net, length))
            if prefix is None:
                prefix = prefixes[(net, length)] = IPv4Prefix(net, length)
            locations[key] = NetworkLocation(IPv4Address(ip), prefix, asn)
        users = self.users
        return [
            MobilityEvent(users[user], day, hour, locations[a], locations[b])
            for user, day, hour, a, b in zip(*columns[:3], old, new)
        ]

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator:
        return iter(self.to_events())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DeviceEventColumns(self.table[index], self.users)
        return self.event(int(index))

    def __repr__(self) -> str:
        return (
            f"DeviceEventColumns({len(self.table)} events, "
            f"{len(self.users)} users)"
        )


def unique_with_inverse(values: Sequence) -> Tuple["np.ndarray", "np.ndarray"]:
    """``np.unique(..., return_inverse=True)`` with a flat inverse.

    numpy 2.x returns the inverse with the input's shape; 1.x returns
    it flattened. The columnar evaluators index with it, so normalize.
    """
    uniq, inverse = np.unique(np.asarray(values), return_inverse=True)
    return uniq, inverse.reshape(-1)
