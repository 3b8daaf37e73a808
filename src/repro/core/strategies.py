"""Forwarding strategies for multihomed content (§3.3).

For a domain ``d`` with address set ``Addrs(d, t)``, a content router's
eligible output ports ``FIB(R, d, t)`` are the ports of the routes to
each address. Two strategies from the paper, plus the §3.3.3 extension:

* **best-port forwarding** — forward on the single best eligible port;
  a mobility event costs an update iff ``best(FIB(R,d,t))`` changes;
* **controlled flooding** — forward on every eligible port; an event
  costs an update iff the *set* ``FIB(R,d,t)`` changes;
* **union flooding** (§3.3.3) — compute the port set over the union of
  all addresses *ever* observed: update cost decays towards zero for
  content that flits between previously-visited locations, at the
  price of a growing port set (forwarding traffic and table size).
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, Optional, Set

from ..net import ContentName, IPv4Address, IPv4Prefix
from ..routing import Route, RoutingOracle, VantagePoint, rank_key

__all__ = [
    "ForwardingStrategy",
    "ContentPortMapper",
    "UnionFloodingState",
]


class ForwardingStrategy(enum.Enum):
    """Which §3.3 forwarding strategy a content router runs."""

    BEST_PORT = "best-port"
    CONTROLLED_FLOODING = "controlled-flooding"
    UNION_FLOODING = "union-flooding"


class ContentPortMapper:
    """Projects address sets onto ports at one vantage router.

    Routes are cached per covering prefix — content addresses cluster
    into a modest number of prefixes (CDN pools, hosting farms), so the
    cache turns a full content evaluation from millions of BGP
    computations into thousands.
    """

    def __init__(self, vantage: VantagePoint, oracle: RoutingOracle):
        self.vantage = vantage
        self._oracle = oracle
        self._route_cache: Dict[IPv4Prefix, Optional[Route]] = {}
        self._addr_cache: Dict[IPv4Address, Optional[Route]] = {}

    def route_for_prefix(self, prefix: IPv4Prefix) -> Optional[Route]:
        """The top-ranked RIB route for ``prefix`` (cached)."""
        if prefix not in self._route_cache:
            self._route_cache[prefix] = self.vantage.fib_best(
                self._oracle, prefix
            )
        return self._route_cache[prefix]

    def best_route_for_address(self, address: IPv4Address) -> Optional[Route]:
        """The top-ranked RIB route covering ``address``."""
        if address in self._addr_cache:
            return self._addr_cache[address]
        prefix = self._oracle.topology.covering_prefix(address)
        route = None if prefix is None else self.route_for_prefix(prefix)
        self._addr_cache[address] = route
        return route

    def routes_for_addresses(self, addrs):
        """Best routes for a batch of addresses, in given order.

        Returns ``[Optional[Route], ...]`` aligned with ``addrs``,
        filling the per-address/per-prefix caches of
        :meth:`best_route_for_address`.
        """
        return [self.best_route_for_address(addr) for addr in addrs]

    def eligible_ports(
        self, addrs: Iterable[IPv4Address]
    ) -> FrozenSet[int]:
        """``FIB(R, d, t)``: ports of the routes to every address."""
        ports: Set[int] = set()
        for addr in addrs:
            route = self.best_route_for_address(addr)
            if route is not None:
                ports.add(route.next_hop)
        return frozenset(ports)

    def best_port(self, addrs: Iterable[IPv4Address]) -> Optional[int]:
        """``best(FIB(R, d, t))``: the port of the best route overall.

        The best eligible port is the one whose route ranks highest
        under the §6.2.1 decision process across all the addresses.
        """
        best: Optional[Route] = None
        for addr in addrs:
            route = self.best_route_for_address(addr)
            if route is None:
                continue
            if best is None or rank_key(route) < rank_key(best):
                best = route
        return None if best is None else best.next_hop

    def update_for_event(
        self,
        strategy: ForwardingStrategy,
        old_addrs: FrozenSet[IPv4Address],
        new_addrs: FrozenSet[IPv4Address],
        union_state: Optional["UnionFloodingState"] = None,
        name: Optional[ContentName] = None,
    ) -> bool:
        """§3.3.1 update cost of one mobility event (1 -> True)."""
        if strategy is ForwardingStrategy.BEST_PORT:
            return self.best_port(old_addrs) != self.best_port(new_addrs)
        if strategy is ForwardingStrategy.CONTROLLED_FLOODING:
            return self.eligible_ports(old_addrs) != self.eligible_ports(
                new_addrs
            )
        if strategy is ForwardingStrategy.UNION_FLOODING:
            if union_state is None or name is None:
                raise ValueError(
                    "union flooding needs a UnionFloodingState and a name"
                )
            return union_state.observe(self, name, new_addrs)
        raise ValueError(f"unknown strategy: {strategy!r}")


class UnionFloodingState:
    """Per-router state for the §3.3.3 union-of-past-addresses strategy.

    The router remembers every address ever seen per name; an event
    costs an update only if it enlarges the port set of that union —
    revisits are free.
    """

    def __init__(self) -> None:
        self._addr_union: Dict[ContentName, Set[IPv4Address]] = {}
        self._port_union: Dict[ContentName, FrozenSet[int]] = {}

    def observe(
        self,
        mapper: ContentPortMapper,
        name: ContentName,
        addrs: FrozenSet[IPv4Address],
    ) -> bool:
        """Fold ``addrs`` into the union; True if the port set changed."""
        union = self._addr_union.setdefault(name, set())
        before = self._port_union.get(name, frozenset())
        new_addrs = addrs - union
        if not new_addrs:
            return False
        union |= new_addrs
        after = before | mapper.eligible_ports(new_addrs)
        self._port_union[name] = after
        return after != before

    def port_set(self, name: ContentName) -> FrozenSet[int]:
        """The accumulated eligible port set for ``name``."""
        return self._port_union.get(name, frozenset())

    def table_size(self) -> int:
        """Total accumulated (name, port) state — the cost side."""
        return sum(len(ports) for ports in self._port_union.values())
