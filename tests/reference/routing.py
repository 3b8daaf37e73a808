"""The per-destination Gao-Rexford sweeps :mod:`repro.routing.frontier`
batches.

Two references: the textbook three-stage valley-free sweep, one
destination at a time over Python dicts with whole path tuples
compared lexicographically (:func:`compute_routes`), and the
one-destination array sweep over the CSR encoding
(:func:`compute_route_arrays`), whose four vectors the block sweep
must reproduce bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.routing.bgp import BestPath, PathType
from repro.routing.frontier import CUSTOMER, ORIGIN, PEER, PROVIDER, UNREACHED

__all__ = [
    "compute_routes",
    "compute_route_arrays",
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


def _expand(indptr, indices, rows):
    """Gather the CSR rows ``rows``: ``(sources, targets)`` edge lists.

    ``sources[i]`` is the row each ``targets[i]`` neighbor came from;
    rows with no neighbors contribute nothing.
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=indices.dtype)
        return empty, empty
    starts = np.repeat(indptr[rows], counts)
    within = np.arange(total, dtype=indptr.dtype) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(rows, counts), indices[starts + within]


def compute_route_arrays(csr, dest_idx: int):
    """One destination's best-route table as four parallel vectors.

    Returns ``(ptype, plen, parent, entry)`` over ``csr``'s nodes, each
    level of each stage one ``np.minimum.at`` scatter-min.
    """
    n = csr.n
    ptype = np.full(n, UNREACHED, dtype=np.int8)
    plen = np.zeros(n, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int32)
    ptype[dest_idx] = ORIGIN
    plen[dest_idx] = 1

    # Stage 1 — customer routes up provider links, one frontier per
    # BFS level; the winning parent is the minimum child node id.
    frontier = np.array([dest_idx], dtype=np.int32)
    level = 1
    while frontier.size:
        children, provs = _expand(csr.prov_indptr, csr.prov_indices, frontier)
        fresh = ptype[provs] < 0
        children, provs = children[fresh], provs[fresh]
        if children.size == 0:
            break
        best = np.full(n, n, dtype=np.int64)
        np.minimum.at(best, provs, children.astype(np.int64))
        newly = np.unique(provs)
        level += 1
        ptype[newly] = CUSTOMER
        plen[newly] = level
        parent[newly] = best[newly].astype(np.int32)
        frontier = newly.astype(np.int32)

    # Stage 2 — one peering hop off any origin/customer-route holder;
    # composite (held length, peer id) scatter-min.
    unreached = np.nonzero(ptype < 0)[0].astype(np.int32)
    if unreached.size:
        srcs, peers = _expand(csr.peer_indptr, csr.peer_indices, unreached)
        held = (ptype[peers] >= 0) & (ptype[peers] <= CUSTOMER)
        srcs, peers = srcs[held], peers[held]
        if srcs.size:
            big = np.int64(n + 2) * np.int64(n + 2)
            key = plen[peers].astype(np.int64) * (n + 2) + peers
            best = np.full(n, big, dtype=np.int64)
            np.minimum.at(best, srcs, key)
            got = unreached[best[unreached] < big]
            ptype[got] = PEER
            parent[got] = (best[got] % (n + 2)).astype(np.int32)
            plen[got] = (best[got] // (n + 2) + 1).astype(np.int32)

    # Stage 3 — provider routes down customer links: level-synchronous
    # BFS on total path length; the winning parent at a level is the
    # minimum parent node id.
    reached = ptype >= 0
    if not reached.all() and reached.any():
        max_len = int(plen[reached].max())
        length = 1
        while length <= max_len:
            frontier = np.nonzero((ptype >= 0) & (plen == length))[0]
            if frontier.size:
                parents, custs = _expand(
                    csr.cust_indptr, csr.cust_indices,
                    frontier.astype(np.int32),
                )
                fresh = ptype[custs] < 0
                parents, custs = parents[fresh], custs[fresh]
                if custs.size:
                    best = np.full(n, n, dtype=np.int64)
                    np.minimum.at(best, custs, parents.astype(np.int64))
                    newly = np.unique(custs)
                    ptype[newly] = PROVIDER
                    plen[newly] = length + 1
                    parent[newly] = best[newly].astype(np.int32)
                    max_len = max(max_len, length + 1)
            length += 1

    # Entry nodes: parent path length is always plen-1, so one pass in
    # ascending length order resolves every chain.
    entry = np.full(n, -1, dtype=np.int32)
    routed = ptype >= 0
    if routed.any():
        for length in range(2, int(plen[routed].max()) + 1):
            idxs = np.nonzero(routed & (plen == length))[0]
            if idxs.size:
                entry[idxs] = np.where(
                    parent[idxs] == dest_idx, idxs, entry[parent[idxs]]
                ).astype(np.int32)
    return ptype, plen, parent, entry


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
