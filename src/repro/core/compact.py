"""Compact routing: the stretch vs. table-size trade-off (§2.1, §5).

The paper frames its update-cost analysis against the compact-routing
literature: "with N flat identifiers, to be within 3x stretch of
shortest-path, each router needs to maintain Ω(N) forwarding entries;
for up to 5x stretch, it is Ω(√N)" (§2.1, citing Krioukov et al. and
Thorup-Zwick). This module implements a Thorup-Zwick-style landmark
scheme so that third axis of the design space — traded against the
update cost and stretch axes the paper measures — is concrete:

* a set of **landmarks** is sampled; every router knows the shortest
  path to every landmark;
* every router additionally keeps entries for its **cluster**: the
  nodes that are closer to it than to their own nearest landmark;
* a packet for destination ``d`` is routed directly when ``d`` is in
  the table, and otherwise via ``d``'s nearest landmark — the classic
  ≤3x multiplicative stretch construction.

Fewer landmarks → smaller tables (toward Θ(√N) at the optimum sampling
rate) but longer detours; landmarks everywhere degenerates to
shortest-path routing with Θ(N) entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set

from ..stats import mean
from ..topology import Graph

__all__ = ["CompactRoutingScheme", "CompactStats"]

Node = Hashable


@dataclass(frozen=True)
class CompactStats:
    """Aggregate cost/benefit of one compact-routing instance."""

    num_landmarks: int
    mean_table_size: float
    max_table_size: int
    mean_multiplicative_stretch: float
    max_multiplicative_stretch: float


class CompactRoutingScheme:
    """A landmark (Thorup-Zwick style) compact routing scheme."""

    def __init__(
        self,
        graph: Graph,
        landmarks: Optional[Sequence[Node]] = None,
        sample_prob: float = 0.3,
        rng: Optional[random.Random] = None,
    ):
        if not graph.is_connected():
            raise ValueError("compact routing needs a connected graph")
        self._graph = graph
        self._nodes = sorted(graph.nodes(), key=repr)
        if landmarks is None:
            rng = rng or random.Random(0)
            landmarks = [
                node for node in self._nodes if rng.random() < sample_prob
            ]
            if not landmarks:
                landmarks = [self._nodes[0]]
        if not landmarks:
            raise ValueError("need at least one landmark")
        self._landmarks: List[Node] = sorted(set(landmarks), key=repr)
        for lm in self._landmarks:
            if lm not in graph:
                raise ValueError(f"landmark {lm!r} is not in the graph")

        # All distances we need: from every landmark, and from every
        # node (the toy graphs are small; clarity over asymptotics).
        self._dist: Dict[Node, Dict[Node, int]] = {
            node: graph.bfs_distances(node) for node in self._nodes
        }
        # Nearest landmark per node (deterministic tie-break).
        self._home_landmark: Dict[Node, Node] = {}
        for node in self._nodes:
            self._home_landmark[node] = min(
                self._landmarks,
                key=lambda lm: (self._dist[node][lm], repr(lm)),
            )
        # Cluster(w) = nodes strictly closer to w than to their own
        # nearest landmark. Every router's table = landmarks + the
        # nodes whose cluster it belongs to... equivalently each router
        # v stores: all landmarks, plus every w with v in cluster(w).
        # For table accounting we compute, per router, the set of
        # destinations it holds a direct entry for.
        self._direct_entries: Dict[Node, Set[Node]] = {
            node: set(self._landmarks) for node in self._nodes
        }
        for w in self._nodes:
            d_w_home = self._dist[w][self._home_landmark[w]]
            for v in self._nodes:
                if self._dist[w][v] < d_w_home:
                    self._direct_entries[v].add(w)

    @property
    def landmarks(self) -> List[Node]:
        """The landmark set."""
        return list(self._landmarks)

    def table_size(self, router: Node) -> int:
        """Number of forwarding entries ``router`` keeps."""
        return len(self._direct_entries[router])

    def has_direct_entry(self, router: Node, dest: Node) -> bool:
        """True if ``router`` can route to ``dest`` without a landmark."""
        return dest in self._direct_entries[router]

    def route_length(self, source: Node, dest: Node) -> int:
        """Hops the scheme's route takes from ``source`` to ``dest``.

        Direct when the source holds an entry for the destination (the
        whole shortest path stays inside tables by construction of the
        cluster definition); otherwise via the destination's home
        landmark.
        """
        if source == dest:
            return 0
        if self.has_direct_entry(source, dest):
            return self._dist[source][dest]
        landmark = self._home_landmark[dest]
        return self._dist[source][landmark] + self._dist[landmark][dest]

    def stretch(self, source: Node, dest: Node) -> float:
        """Multiplicative stretch of the scheme's route."""
        if source == dest:
            return 1.0
        shortest = self._dist[source][dest]
        return self.route_length(source, dest) / shortest

    def stats(self) -> CompactStats:
        """Aggregate table sizes and stretch over all ordered pairs."""
        sizes = [self.table_size(node) for node in self._nodes]
        stretches: List[float] = []
        for source in self._nodes:
            for dest in self._nodes:
                if source != dest:
                    stretches.append(self.stretch(source, dest))
        return CompactStats(
            num_landmarks=len(self._landmarks),
            mean_table_size=mean(sizes),
            max_table_size=max(sizes),
            mean_multiplicative_stretch=mean(stretches),
            max_multiplicative_stretch=max(stretches),
        )
