"""Policy-driven interdomain routing over the synthetic AS topology.

This module computes, for every destination AS, the best
policy-compliant (valley-free / Gao-Rexford) route from every other AS,
and derives the *candidate route set* visible at a vantage router —
the synthetic equivalent of a RouteViews RIB (§3.2, §6.2.1).

Model
-----
Routes propagate under the standard export rules:

* an AS exports routes learned from customers (and its own prefixes) to
  *everyone*;
* routes learned from peers or providers are exported *only to
  customers*.

Each AS selects one best route per destination with the canonical
preference: customer-learned > peer-learned > provider-learned, then
shortest AS path, then lowest next-hop ASN. The computation is the
usual three-stage breadth-first sweep (customer routes up the provider
DAG, one peer hop, provider routes down), which yields exactly the
stable state of this policy system; :mod:`.frontier` runs it
frontier-batched over integer arrays.

A :class:`VantagePoint` is a route collector attached to a set of
neighbor ASes with explicit business relationships. It originates
nothing and transits nothing (like a RouteViews collector), so its RIB
for a destination is: for each neighbor, the neighbor's best route —
if the neighbor's export policy towards the collector allows it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..net import IPv4Prefix
from ..topology import ASTopology, Relationship
from .ranking import Route, best_route, synthetic_med

__all__ = [
    "PathType",
    "BestPath",
    "RoutingOracle",
    "VantagePoint",
]


class PathType(enum.Enum):
    """How an AS learned its best route (determines what it re-exports)."""

    ORIGIN = "origin"  # the AS originates the destination itself
    CUSTOMER = "customer"  # learned from a customer
    PEER = "peer"  # learned from a peer
    PROVIDER = "provider"  # learned from a provider


#: Path types an AS may export to its peers and providers.
_EXPORTABLE_UPWARD = (PathType.ORIGIN, PathType.CUSTOMER)


@dataclass(frozen=True)
class BestPath:
    """An AS's best route to some destination AS."""

    path: Tuple[int, ...]  # from this AS (inclusive) to the destination
    path_type: PathType

    def length(self) -> int:
        """Number of ASNs on the path."""
        return len(self.path)


class RoutingOracle:
    """Per-destination best policy paths for every AS, computed lazily."""

    def __init__(self, topology: ASTopology):
        self._topo = topology
        self._cache: Dict[int, Dict[int, BestPath]] = {}
        #: Destinations computed since construction, unpickling, or the
        #: last :meth:`mark_clean` — i.e. routes a warm-cache snapshot
        #: does not yet hold.
        self._dirty = 0
        #: Lazily built array control plane (never pickled: its route
        #: tables are a cache the warm artifact refills).
        self._frontier = None

    @property
    def topology(self) -> ASTopology:
        """The AS topology routes are computed over."""
        return self._topo

    @property
    def route_cache_size(self) -> int:
        """Number of destinations with fully computed routes."""
        return len(self._cache)

    @property
    def dirty_routes(self) -> int:
        """Destinations computed since the last snapshot/:meth:`mark_clean`."""
        return self._dirty

    def mark_clean(self) -> None:
        """Declare the accumulated routes persisted (resets dirtiness)."""
        self._dirty = 0

    def __getstate__(self):
        # A pickled oracle *is* the snapshot, so it carries no dirt —
        # rehydrated copies must not re-persist routes they were loaded
        # with. The array control plane is dropped for the same reason
        # (its tables persist as their own array artifact): a
        # rehydrated oracle rebuilds or re-imports its tables, starting
        # clean.
        state = dict(self.__dict__)
        state["_dirty"] = 0
        state["_frontier"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Pre-dirtiness pickles (older cache entries) lack the fields.
        self.__dict__.setdefault("_dirty", 0)
        self.__dict__.setdefault("_frontier", None)

    def frontier_engine(self):
        """The array control plane for this topology (built on demand)."""
        engine = self._frontier
        if engine is None:
            from .frontier import FrontierEngine

            engine = FrontierEngine(self._topo)
            self._frontier = engine
        return engine

    @property
    def table_dirty(self) -> int:
        """Array route tables computed since the last export/import."""
        engine = self._frontier
        return 0 if engine is None else engine.dirty

    def export_route_tables(self):
        """Cached array tables as flat buffers (None when empty).

        Marks the engine clean: the caller is persisting the snapshot.
        """
        engine = self._frontier
        if engine is None:
            return None
        buffers = engine.export_tables()
        if buffers is not None:
            engine.dirty = 0
        return buffers

    def import_route_tables(self, buffers) -> None:
        """Copy previously exported array tables (a warm artifact) into
        the engine's store; raises ValueError for tables that do not
        fit this topology."""
        self.frontier_engine().import_tables(buffers)

    def routes_to(self, dest_asn: int) -> Dict[int, BestPath]:
        """Best path from every AS to ``dest_asn`` (absent = unreachable)."""
        cached = self._cache.get(dest_asn)
        if cached is not None:
            return cached
        if dest_asn not in self._topo.ases:
            raise KeyError(f"unknown destination AS{dest_asn}")
        from .frontier import materialize_routes

        engine = self.frontier_engine()
        (row,) = engine.rows([dest_asn])
        result = materialize_routes(
            engine.csr, engine.ptype[row], engine.plen[row],
            engine.parent[row],
        )
        self._cache[dest_asn] = result
        self._dirty += 1
        obs.incr("oracle.demand_computations")
        # ``.size`` suffix: merged by summation across workers (each
        # worker grows its own cache; aggregate memory is the sum).
        obs.gauge("oracle.route_cache.size", len(self._cache))
        return result

    def routes_to_many(self, dest_asns):
        """Best-route tables for many destinations as stacked arrays.

        The bulk control-plane API: returns a
        :class:`~repro.routing.frontier.RouteTableBatch`, one row per
        requested destination in request order, gathered in one step
        from the frontier engine's store after computing each missing
        destination once. ``batch.materialize(dest)`` rebuilds the
        exact per-destination dict :meth:`routes_to` returns.
        """
        return self.frontier_engine().batch(dest_asns)

    def best_path(self, source_asn: int, dest_asn: int) -> Optional[BestPath]:
        """The best policy path from ``source_asn`` to ``dest_asn``."""
        return self.routes_to(dest_asn).get(source_asn)


@dataclass
class VantagePoint:
    """A route collector: the synthetic analogue of one paper router.

    ``neighbors`` maps each adjacent ASN to its relationship *from the
    collector's point of view* (``Relationship.CUSTOMER`` means the
    neighbor is the collector's customer). ``host_region`` records
    where the router physically sits, for reporting only.
    """

    name: str
    host_region: str
    neighbors: Dict[int, Relationship]
    #: Fraction of multi-provider origins whose prefixes are selectively
    #: announced (traffic engineering); adds prefix-level diversity.
    selective_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.neighbors:
            raise ValueError(f"vantage {self.name!r} has no neighbors")

    def next_hop_degree(self) -> int:
        """Number of distinct possible next hops (neighbor count)."""
        return len(self.neighbors)

    # -- RIB / FIB derivation -----------------------------------------

    def candidate_routes(
        self, oracle: RoutingOracle, prefix: IPv4Prefix
    ) -> List[Route]:
        """The RIB entries this collector holds for ``prefix``.

        For each neighbor: take the neighbor's best path to the
        prefix's origin AS, apply the neighbor's export policy toward
        the collector, stamp a deterministic MED, and label the route
        with the collector's relationship to that neighbor.
        """
        origin = oracle.topology.origin_of_prefix(prefix)
        if origin is None:
            origin = oracle.topology.origin_of_address(prefix.first_address())
        if origin is None:
            return []
        return self.candidate_routes_to_origin(oracle, origin, prefix)

    def candidate_routes_to_origin(
        self, oracle: RoutingOracle, origin_asn: int, prefix: IPv4Prefix
    ) -> List[Route]:
        """RIB entries for a prefix known to be originated by ``origin_asn``."""
        table = oracle.routes_to(origin_asn)
        routes: List[Route] = []
        for nbr in sorted(self.neighbors):
            rel = self.neighbors[nbr]
            bp = table.get(nbr)
            if bp is None:
                continue
            if rel is not Relationship.PROVIDER and bp.path_type not in (
                _EXPORTABLE_UPWARD
            ):
                # The neighbor treats the collector as a peer or its
                # provider, so it exports only customer/origin routes.
                continue
            routes.append(
                Route(
                    prefix=prefix,
                    next_hop=nbr,
                    as_path=bp.path,
                    relationship=rel,
                    med=synthetic_med(nbr, prefix),
                )
            )
        routes = self._apply_selective_announcement(oracle, origin_asn, prefix, routes)
        return routes

    def _apply_selective_announcement(
        self,
        oracle: RoutingOracle,
        origin_asn: int,
        prefix: IPv4Prefix,
        routes: List[Route],
    ) -> List[Route]:
        """Prefix-level traffic engineering (§3.2 prefix diversity).

        A deterministic fraction of prefixes belonging to multi-provider
        origins are announced through a single chosen provider; routes
        entering the origin through a different provider are dropped
        (falling back to the full set if the filter would strand the
        prefix).
        """
        if self.selective_fraction <= 0.0 or len(routes) <= 1:
            return routes
        providers = sorted(oracle.topology.ases[origin_asn].providers)
        if len(providers) < 2:
            return routes
        # Deterministic per-prefix coin flip and provider choice.
        h = (prefix.network * 1103515245 + prefix.length) & 0x7FFFFFFF
        if (h % 1000) / 1000.0 >= self.selective_fraction:
            return routes
        chosen = providers[(h >> 8) % len(providers)]
        filtered = [
            r
            for r in routes
            if len(r.as_path) < 2 or r.as_path[-2] == chosen
        ]
        return filtered if filtered else routes

    def fib_best(
        self, oracle: RoutingOracle, prefix: IPv4Prefix
    ) -> Optional[Route]:
        """The FIB entry: the top-ranked RIB route for ``prefix``."""
        return best_route(self.candidate_routes(oracle, prefix))

    def next_hop_table(self, oracle: RoutingOracle, prefixes) -> "list":
        """FIB next hops for a batch of prefixes, as an int64 array.

        Entry ``i`` is the next-hop ASN of :meth:`fib_best` for
        ``prefixes[i]``, or ``-1`` when the collector holds no route —
        the dense LUT the device evaluator gathers through instead of
        calling :meth:`fib_best` per event. It is the neighbor that
        :func:`~repro.routing.frontier.fib_keys` names. ``local_pref``
        is 0 on every route, so those keys order routes across
        prefixes exactly as :func:`~repro.routing.ranking.rank_key`
        does; the content pass ranks address sets by them.
        """
        from .frontier import fib_keys, rank_vectors

        with obs.span("routing.batch.next_hop_table"):
            keys = fib_keys(self, oracle, prefixes)
            nbr_asns = rank_vectors(self)[0]
            table = nbr_asns[keys % len(nbr_asns)]
            table[keys < 0] = -1
        obs.incr("vantage.next_hop_table.prefixes", len(prefixes))
        return table
