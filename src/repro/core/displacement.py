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
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ..mobility import MobilityEvent
from ..net import IPv4Address, IPv4Prefix
from ..routing import RoutingOracle, VantagePoint
from ..topology import IntradomainNetwork
from ..workload import require_numpy

np = require_numpy()

__all__ = [
    "intradomain_displaced",
    "InterdomainPortMap",
    "interdomain_displaced",
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
