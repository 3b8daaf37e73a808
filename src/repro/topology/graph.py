"""A small undirected graph type with the queries the evaluation needs.

The toy-topology analysis (§5) and the router-level displacement test
(§3.1) only need adjacency, shortest paths, and next-hop extraction, so
this module implements exactly that rather than pulling in a general
graph library: the structures stay transparent and deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Graph"]

Node = Hashable


class Graph:
    """An undirected graph with optional per-edge weights.

    Nodes are arbitrary hashable values. Edges carry a positive weight
    (default 1.0) used by Dijkstra-based queries; hop-count queries
    ignore weights.
    """

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}

    # -- construction -------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add ``node`` if not already present."""
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or re-weight) the undirected edge ``u -- v``."""
        if u == v:
            raise ValueError(f"self-loops are not allowed: {u!r}")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive: {weight!r}")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``u -- v``; raises KeyError if absent."""
        del self._adj[u][v]
        del self._adj[v][u]

    # -- inspection ---------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> Iterator[Node]:
        """All nodes."""
        return iter(self._adj)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Each undirected edge once, as ``(u, v, weight)``."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if (v, u) not in seen:
                    seen.add((u, v))
                    yield u, v, w

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def neighbors(self, node: Node) -> List[Node]:
        """The neighbors of ``node``."""
        return list(self._adj[node])

    def degree(self, node: Node) -> int:
        """Number of neighbors of ``node``."""
        return len(self._adj[node])

    def has_edge(self, u: Node, v: Node) -> bool:
        """True if the edge ``u -- v`` exists."""
        return u in self._adj and v in self._adj[u]

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of the edge ``u -- v``; raises KeyError if absent."""
        return self._adj[u][v]

    # -- shortest paths (hop count) ------------------------------------

    def bfs_distances(self, source: Node) -> Dict[Node, int]:
        """Hop-count distance from ``source`` to every reachable node."""
        if source not in self._adj:
            raise KeyError(f"unknown node: {source!r}")
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def hop_distance(self, u: Node, v: Node) -> Optional[int]:
        """Hop-count distance between ``u`` and ``v`` (None if disconnected)."""
        return self.bfs_distances(u).get(v)

    def shortest_path_tree(self, source: Node) -> Dict[Node, Node]:
        """BFS predecessor map: ``tree[v]`` is v's parent towards source.

        The source itself is absent from the map. Ties are broken by
        sorted neighbor order so the tree is deterministic.
        """
        if source not in self._adj:
            raise KeyError(f"unknown node: {source!r}")
        parent: Dict[Node, Node] = {}
        visited = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(self._adj[u], key=repr):
                if v not in visited:
                    visited.add(v)
                    parent[v] = u
                    queue.append(v)
        return parent

    def next_hops(self, router: Node) -> Dict[Node, Node]:
        """The shortest-path (hop count) next hop from ``router`` to each node.

        ``next_hops(r)[d]`` is the neighbor of ``r`` on a shortest path
        to ``d``; ``r`` maps to itself (local delivery). Ties are broken
        by sorted neighbor order, mirroring a deterministic FIB.
        """
        dist = self.bfs_distances(router)
        ordered_nbrs = sorted(self._adj[router], key=repr)
        nbr_dist = {nbr: self.bfs_distances(nbr) for nbr in ordered_nbrs}
        nh: Dict[Node, Node] = {router: router}
        for d in dist:
            if d == router:
                continue
            # Pick the deterministic first neighbor on a shortest path to d.
            for nbr in ordered_nbrs:
                if nbr_dist[nbr].get(d, float("inf")) == dist[d] - 1:
                    nh[d] = nbr
                    break
        return nh

    def next_hops_fast(self, router: Node) -> Dict[Node, Node]:
        """Same result contract as :meth:`next_hops`, in one BFS pass.

        Runs a single BFS from ``router`` and labels every node with the
        first-hop neighbor that discovered it, expanding neighbors in
        sorted order so the labelling matches a deterministic FIB.
        """
        if router not in self._adj:
            raise KeyError(f"unknown node: {router!r}")
        first_hop: Dict[Node, Node] = {router: router}
        dist = {router: 0}
        queue = deque()
        for nbr in sorted(self._adj[router], key=repr):
            dist[nbr] = 1
            first_hop[nbr] = nbr
            queue.append(nbr)
        while queue:
            u = queue.popleft()
            for v in sorted(self._adj[u], key=repr):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    first_hop[v] = first_hop[u]
                    queue.append(v)
        return first_hop

    # -- shortest paths (weighted) -------------------------------------

    def dijkstra(self, source: Node) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        """Weighted distances and predecessor map from ``source``."""
        if source not in self._adj:
            raise KeyError(f"unknown node: {source!r}")
        dist: Dict[Node, float] = {source: 0.0}
        parent: Dict[Node, Node] = {}
        done = set()
        heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
        counter = 1
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in self._adj[u].items():
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, counter, v))
                    counter += 1
        return dist, parent

    def shortest_path(self, u: Node, v: Node) -> Optional[List[Node]]:
        """A weighted shortest path from ``u`` to ``v`` as a node list."""
        dist, parent = self.dijkstra(u)
        if v not in dist:
            return None
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    # -- global properties ----------------------------------------------

    def is_connected(self) -> bool:
        """True if the graph is non-empty and one component."""
        if not self._adj:
            return False
        source = next(iter(self._adj))
        return len(self.bfs_distances(source)) == len(self._adj)

    def diameter(self) -> int:
        """Max hop-count distance between any node pair (connected graphs)."""
        if not self.is_connected():
            raise ValueError("diameter is undefined for disconnected graphs")
        best = 0
        for node in self._adj:
            best = max(best, max(self.bfs_distances(node).values()))
        return best

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The induced subgraph on ``nodes``."""
        keep = set(nodes)
        sub = Graph()
        for node in keep:
            if node in self._adj:
                sub.add_node(node)
        for u, v, w in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w)
        return sub
