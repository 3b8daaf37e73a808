"""The per-destination dict-BFS Gao-Rexford oracle.

The textbook form of the three-stage valley-free sweep that
:mod:`repro.routing.frontier` batches over CSR arrays: one destination
at a time, over Python dicts, with whole path tuples compared
lexicographically.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.routing.bgp import BestPath, PathType

__all__ = [
    "compute_routes",
    "ReferenceOracle",
    "next_hop_table",
    "assert_same_routes",
]


def _better(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Within one path type: shorter path wins, then lexicographic path.

    Lexicographic comparison on the ASN tuple subsumes the lowest-
    next-hop tiebreak and makes the oracle fully deterministic.
    """
    return (len(a), a) < (len(b), b)


def compute_routes(topo, dest: int) -> Dict[int, BestPath]:
    """Best path from every AS to ``dest`` (absent = unreachable)."""
    info: Dict[int, BestPath] = {dest: BestPath((dest,), PathType.ORIGIN)}

    # Stage 1 — customer routes: propagate up provider links, level
    # by level (BFS), so every AS in the destination's provider
    # cone gets its shortest customer-learned path.
    current: Dict[int, Tuple[int, ...]] = {dest: (dest,)}
    while current:
        candidates: Dict[int, Tuple[int, ...]] = {}
        for child in sorted(current):
            child_path = current[child]
            for provider in sorted(topo.ases[child].providers):
                if provider in info:
                    continue
                cand = (provider,) + child_path
                prev = candidates.get(provider)
                if prev is None or _better(cand, prev):
                    candidates[provider] = cand
        for asn, path in candidates.items():
            info[asn] = BestPath(path, PathType.CUSTOMER)
        current = candidates

    # Stage 2 — peer routes: one peering hop off any AS holding a
    # customer/origin route. Only ASes that did not get a customer
    # route take one (customer routes are strictly preferred).
    peer_adds: Dict[int, Tuple[int, ...]] = {}
    holders = dict(info)
    for asn in sorted(topo.ases):
        if asn in info:
            continue
        best: Optional[Tuple[int, ...]] = None
        for peer in sorted(topo.ases[asn].peers):
            held = holders.get(peer)
            if held is None:
                continue
            cand = (asn,) + held.path
            if best is None or _better(cand, best):
                best = cand
        if best is not None:
            peer_adds[asn] = best
    for asn, path in peer_adds.items():
        info[asn] = BestPath(path, PathType.PEER)

    # Stage 3 — provider routes: propagate down customer links from
    # every AS that has a route, in order of total path length
    # (Dijkstra with unit weights and multi-source initialization;
    # sources start at their existing path lengths).
    heap: List[Tuple[int, Tuple[int, ...], int]] = []
    for asn, bp in info.items():
        for customer in topo.ases[asn].customers:
            if customer in info:
                continue
            cand = (customer,) + bp.path
            heapq.heappush(heap, (len(cand), cand, customer))
    while heap:
        _, path, asn = heapq.heappop(heap)
        if asn in info:
            continue
        if asn in path[1:]:
            continue  # loop prevention
        info[asn] = BestPath(path, PathType.PROVIDER)
        for customer in topo.ases[asn].customers:
            if customer in info:
                continue
            cand = (customer,) + path
            heapq.heappush(heap, (len(cand), cand, customer))
    return info


class ReferenceOracle:
    """The part of :class:`~repro.routing.RoutingOracle` that
    ``VantagePoint.fib_best`` and the port mappers read, answered from
    :func:`compute_routes`."""

    def __init__(self, topology):
        self.topology = topology
        self._tables: Dict[int, Dict[int, BestPath]] = {}

    def routes_to(self, dest_asn: int) -> Dict[int, BestPath]:
        table = self._tables.get(dest_asn)
        if table is None:
            table = compute_routes(self.topology, dest_asn)
            self._tables[dest_asn] = table
        return table


def next_hop_table(vantage, oracle, prefixes) -> np.ndarray:
    """Per-prefix ``fib_best`` next hops, ``-1`` where there is no route."""
    table = np.full(len(prefixes), -1, dtype=np.int64)
    for i, prefix in enumerate(prefixes):
        best = vantage.fib_best(oracle, prefix)
        if best is not None:
            table[i] = best.next_hop
    return table


def assert_same_routes(actual, expected, dest) -> None:
    """Two ``{asn: BestPath}`` tables agree on every path and type."""
    assert set(actual) == set(expected), dest
    for asn, bp in actual.items():
        assert bp.path == expected[asn].path, (dest, asn)
        assert bp.path_type is expected[asn].path_type, (dest, asn)
