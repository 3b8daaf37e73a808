"""The displacement test (§3.1-§3.2).

A mobility event *displaces* an endpoint with respect to a router if
the endpoint moved from one longest-matching forwarding entry to
another and the two entries point to different output ports — that is
the precise condition under which a purely name-based router must
change its forwarding behaviour to keep delivering to the endpoint.

Two variants:

* **intradomain** (§3.1): ports come from shortest-path FIBs of an
  :class:`~repro.topology.intradomain.IntradomainNetwork`;
* **interdomain** (§3.2): ports are BGP next hops at a vantage router,
  derived from its RIB (``next_hop`` as output-port proxy, §6.2.2).

The interdomain test runs in batch form too: :func:`prefix_ids` interns
the covering prefixes of many addresses, and :func:`displaced` compares
ports gathered through a per-prefix lookup table. Every experiment that
asks the §3.2 question of a whole workload goes through these two.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ..mobility import MobilityEvent
from ..net import IPv4Address, IPv4Prefix
from ..routing import RoutingOracle, VantagePoint
from ..topology import IntradomainNetwork
from ..workload import require_numpy
from ..workload.columns import unique_with_inverse

np = require_numpy()

__all__ = [
    "intradomain_displaced",
    "InterdomainPortMap",
    "interdomain_displaced",
    "prefix_ids",
    "event_prefix_ids",
    "displaced",
]


def intradomain_displaced(
    network: IntradomainNetwork,
    router: Hashable,
    old_addr: IPv4Address,
    new_addr: IPv4Address,
) -> bool:
    """§3.1: does ``router`` need an update when an endpoint moves
    from ``old_addr`` to ``new_addr``?

    True when the longest-matching entries for the two addresses point
    to different output ports (the Fig. 2 condition). Addresses with no
    matching entry are treated as unroutable and never force an update
    by themselves.
    """
    old_port = network.lookup_port(router, old_addr)
    new_port = network.lookup_port(router, new_addr)
    if old_port is None or new_port is None:
        return False
    return old_port != new_port


class InterdomainPortMap:
    """Cached address -> output-port mapping at one vantage router.

    The best next hop depends only on the covering announced prefix, so
    lookups are cached per prefix; a full device-mobility evaluation
    touches each prefix many times.
    """

    def __init__(self, vantage: VantagePoint, oracle: RoutingOracle):
        self.vantage = vantage
        self._oracle = oracle
        self._cache: Dict[IPv4Prefix, Optional[int]] = {}

    def port_for_prefix(self, prefix: IPv4Prefix) -> Optional[int]:
        """Best next hop for ``prefix`` (None if no route)."""
        if prefix not in self._cache:
            best = self.vantage.fib_best(self._oracle, prefix)
            self._cache[prefix] = None if best is None else best.next_hop
        return self._cache[prefix]

    def port_for_address(self, address: IPv4Address) -> Optional[int]:
        """Best next hop for the prefix covering ``address``."""
        prefix = self._oracle.topology.covering_prefix(address)
        if prefix is None:
            return None
        return self.port_for_prefix(prefix)

    def port_table(self, prefixes):
        """Output ports for a batch of prefixes, as an int64 array.

        Entry ``i`` is :meth:`port_for_prefix` of ``prefixes[i]`` with
        ``None`` encoded as ``-1`` — the per-router LUT the vectorized
        device evaluator gathers through with one fancy-index per
        column. Shares (and warms) the per-prefix cache of
        :meth:`port_for_prefix`, so mixing the two never recomputes a
        route.
        """
        missing = [p for p in prefixes if p not in self._cache]
        if missing:
            filled = self.vantage.next_hop_table(self._oracle, missing)
            for prefix, port in zip(missing, filled.tolist()):
                self._cache[prefix] = None if port < 0 else port
        table = np.empty(len(prefixes), dtype=np.int64)
        for i, prefix in enumerate(prefixes):
            port = self._cache[prefix]
            table[i] = -1 if port is None else port
        return table

    def cache_size(self) -> int:
        """Number of prefixes resolved so far."""
        return len(self._cache)


def interdomain_displaced(
    port_map: InterdomainPortMap, event: MobilityEvent
) -> bool:
    """§3.2/§6.2.2: does the mobility event change the router's best
    forwarding port for the moving device?

    Uses the next hop of the highest-ranked RIB route as the output
    port, "implicitly assuming that the forwarding output port changes
    if and only if the next hop attribute changes".
    """
    old_port = port_map.port_for_address(event.old.ip)
    new_port = port_map.port_for_address(event.new.ip)
    if old_port is None or new_port is None:
        return False
    return old_port != new_port


def prefix_ids(topology, addresses):
    """Intern the covering prefixes of 32-bit address values.

    Returns ``(prefixes, ids)``: the distinct announced prefixes that
    cover ``addresses``, in order of their first covered address
    (ascending), and each address's index into them (-1 when no prefix
    covers it). Each unique address is resolved once, however often it
    repeats, by the topology's value-level
    :meth:`~repro.topology.ASTopology.covering`.
    """
    unique, inverse = unique_with_inverse(
        np.asarray(addresses, dtype=np.int64)
    )
    index: Dict[IPv4Prefix, int] = {}
    ids = np.fromiter(
        (-1 if hit is None else index.setdefault(hit[0], len(index))
         for hit in map(topology.covering, unique.tolist())),
        dtype=np.int64, count=len(unique),
    )
    return list(index), ids[inverse]


def event_prefix_ids(topology, columns):
    """``(prefixes, old_ids, new_ids)`` of a device event table.

    :func:`prefix_ids` over every event's old and new address at once,
    split back into one id column per side.
    """
    cols = columns.as_columns()
    prefixes, ids = prefix_ids(
        topology, np.concatenate([cols.from_ip, cols.to_ip])
    )
    count = len(columns)
    return prefixes, ids[:count], ids[count:]


def displaced(ports, old, new):
    """The §3.2 test over a batch of moves, as a boolean array.

    ``ports[i]`` is the router's output port for prefix id ``i`` (-1
    when it holds no route); ``old`` and ``new`` are the prefix ids a
    move leaves and reaches (-1 when no prefix covers the address).
    Move ``k`` displaces the endpoint when both ports exist and differ,
    as :func:`interdomain_displaced` decides one event at a time.
    """
    # The appended -1 makes prefix id -1 gather port -1 (no route).
    lut = np.append(np.asarray(ports, dtype=np.int64), -1)
    old_port = lut[old]
    new_port = lut[new]
    return (old_port >= 0) & (new_port >= 0) & (old_port != new_port)
