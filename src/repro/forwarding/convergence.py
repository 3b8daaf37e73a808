"""Routing convergence and mobility outage for name-based routing.

§2 of the paper: achieving location independence "purely at the network
layer without inducing significant stretch or long outage times upon
mobility events is nontrivial", and §8 lists routing convergence delay
among the metrics the empirical methodology could not evaluate. This
module evaluates it on the §5 toy setting: a shortest-path name-routing
network where, after an endpoint moves, the routing update propagates
hop-by-hop outward from the new attachment router with a fixed per-hop
delay. Until a router has processed the update it forwards on its old
entry — so packets can chase the endpoint's old location (a blackhole)
or even loop between stale and fresh routers.

:class:`ConvergenceSimulator` computes, per mobility event:

* **outage duration** at each source — how long packets from that
  source fail to reach the endpoint;
* **convergence time** — when the whole network is consistent;
* **delivery success** for probe packets injected during convergence.

For comparison, indirection's outage is a single home-agent update
(one RTT) and resolution's is bounded by the binding TTL
(:mod:`repro.resolution.staleness`) — which is exactly the paper's
qualitative argument made quantitative.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from .. import obs
from ..faults import LINK, ROUTER, FaultSchedule, MessageLossModel, RetryPolicy
from ..stats import sequential_sum
from ..topology import Graph
from ..workload import require_numpy

np = require_numpy()

__all__ = ["MobilityOutage", "FaultyMobilityOutage", "ConvergenceSimulator"]

Node = Hashable


class _ConvArrays:
    """Array mirror of one simulator's graph: indices, adjacency, LUTs.

    Nodes are numbered in the simulator's deterministic ``_nodes``
    order. The dense adjacency matrix drives batched multi-source BFS
    (toy/intradomain graphs are small, so ``(S, n) @ (n, n)`` beats a
    per-source dict flood by orders of magnitude); per-target hop rows
    and next-hop columns are cached per target.
    """

    def __init__(self, sim: "ConvergenceSimulator"):
        self._sim = sim
        nodes = sim._nodes
        self.n = len(nodes)
        self.index: Dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        adj = np.zeros((self.n, self.n), dtype=np.uint8)
        for i, node in enumerate(nodes):
            for nbr in sim._graph.neighbors(node):
                adj[i, self.index[nbr]] = 1
        self.adj = adj
        self._hops: Dict[Node, "np.ndarray"] = {}
        self._nh_cols: Dict[Node, "np.ndarray"] = {}

    def hop_rows(self, targets) -> list:
        """Hop counts from each target to every node (-1 unreachable).

        All missing targets flood together: one boolean frontier matrix
        stepped by matmul — the vectorized multi-source BFS.
        """
        missing = [t for t in targets if t not in self._hops]
        if missing:
            rows = np.full((len(missing), self.n), -1, dtype=np.int32)
            frontier = np.zeros((len(missing), self.n), dtype=bool)
            for s, t in enumerate(missing):
                frontier[s, self.index[t]] = True
            seen = frontier.copy()
            rows[frontier] = 0
            hops = 0
            while frontier.any():
                hops += 1
                nxt = (frontier.astype(np.uint8) @ self.adj) > 0
                nxt &= ~seen
                rows[nxt] = hops
                seen |= nxt
                frontier = nxt
            for s, t in enumerate(missing):
                self._hops[t] = rows[s]
        return [self._hops[t] for t in targets]

    def nh_col(self, target: Node) -> "np.ndarray":
        """Each node's next hop toward ``target``, as node indices."""
        col = self._nh_cols.get(target)
        if col is None:
            sim = self._sim
            col = np.array(
                [self.index[sim._nh(node)[target]] for node in sim._nodes],
                dtype=np.int64,
            )
            self._nh_cols[target] = col
        return col

#: Default retransmit timers for lossy update propagation: first retry
#: after one hop-delay, doubling, capped at 8 hop-delays.
DEFAULT_RETRANSMIT = RetryPolicy(
    initial_timeout=1.0, backoff_factor=2.0, max_timeout=8.0, max_attempts=12
)


@dataclass(frozen=True)
class MobilityOutage:
    """Outage metrics of one mobility event under name-based routing."""

    old_router: Node
    new_router: Node
    #: Time (in per-hop delay units) until every router has updated.
    convergence_time: float
    #: Per-source outage duration (0 for sources never disrupted).
    outage_by_source: Dict[Node, float]

    def max_outage(self) -> float:
        """The worst source's outage duration."""
        return max(self.outage_by_source.values(), default=0.0)

    def mean_outage(self) -> float:
        """Outage duration averaged over all sources."""
        if not self.outage_by_source:
            return 0.0
        return (sequential_sum(self.outage_by_source.values())
                / len(self.outage_by_source))


@dataclass(frozen=True)
class FaultyMobilityOutage(MobilityOutage):
    """Outage metrics of one mobility event under faults.

    Extends the fault-free record with the control-plane cost of the
    loss regime: how many update retransmissions the flood needed.
    """

    retransmissions: int = 0


class ConvergenceSimulator:
    """Hop-by-hop update propagation on a shortest-path name network."""

    def __init__(self, graph: Graph, per_hop_delay: float = 1.0):
        if per_hop_delay <= 0:
            raise ValueError("per-hop delay must be positive")
        self._graph = graph
        self._delay = per_hop_delay
        self._nodes = sorted(graph.nodes(), key=repr)
        self._next_hops: Dict[Node, Dict[Node, Node]] = {}
        self._conv_arrays: Optional[_ConvArrays] = None

    def _nh(self, router: Node) -> Dict[Node, Node]:
        if router not in self._next_hops:
            self._next_hops[router] = self._graph.next_hops_fast(router)
        return self._next_hops[router]

    def _arrays(self) -> _ConvArrays:
        if self._conv_arrays is None:
            self._conv_arrays = _ConvArrays(self)
        return self._conv_arrays

    def update_arrival_times(self, new_router: Node) -> Dict[Node, float]:
        """When each router learns of the endpoint's new attachment.

        The announcement floods outward from the new attachment router;
        a router at hop distance h processes it at ``h * per_hop_delay``.
        The flood is a multi-source BFS row (cached and shareable across
        every event with this attachment point).
        """
        hops = self._arrays().hop_rows([new_router])[0]
        return {
            node: int(hops[i]) * self._delay
            for i, node in enumerate(self._nodes)
            if hops[i] >= 0
        }

    def forwarding_state_at(
        self, time: float, old_router: Node, new_router: Node
    ) -> Dict[Node, Node]:
        """Each router's next hop toward the endpoint at ``time``."""
        arrivals = self.update_arrival_times(new_router)
        state = {}
        for node in self._nodes:
            target = new_router if arrivals[node] <= time else old_router
            state[node] = self._nh(node)[target]
        return state

    def deliver(
        self, source: Node, time: float, old_router: Node, new_router: Node
    ) -> bool:
        """Does a packet injected at ``source``/``time`` reach the endpoint?

        The packet follows each router's instantaneous entry; it is
        delivered when it arrives at the router where the endpoint now
        lives, and lost if it revisits a router (loop) or strands at
        the old attachment.
        """
        state = self.forwarding_state_at(time, old_router, new_router)
        current = source
        visited = set()
        while True:
            if current == new_router:
                return True
            if current in visited:
                return False  # loop between stale and fresh routers
            visited.add(current)
            hop = state[current]
            if hop == current:
                # Local delivery attempted at a router the endpoint
                # left (the old attachment): blackhole.
                return False
            current = hop

    def simulate_event(
        self, old_router: Node, new_router: Node, probe_step: float = 0.25
    ) -> MobilityOutage:
        """Measure outage per source for one mobility event.

        Probes each source at ``probe_step`` granularity from the move
        until convergence; the outage is the span from the move to the
        last failed probe + step (0 if no probe ever fails).

        All (probe, source) cells are resolved at once. The forwarding
        state at probe time t is a functional graph F[t]; a probe from
        ``source`` succeeds iff iterating F[t] reaches the new
        attachment (a revisit means a stale/fresh loop, a self-loop a
        blackhole — the failure modes of a :meth:`deliver` walk).
        Reachability-to-new over all cells is one monotone fixpoint
        instead of n walks per probe instant.
        """
        arrays = self._arrays()
        hops = arrays.hop_rows([new_router])[0]
        arr = np.where(
            hops >= 0, hops.astype(np.float64) * self._delay, np.inf
        )
        convergence = max(
            int(hops[i]) * self._delay
            for i in range(arrays.n)
            if hops[i] >= 0
        )
        ts = self._probe_grid(convergence, probe_step)
        tsv = np.array(ts, dtype=np.float64)
        nh_new = arrays.nh_col(new_router)
        nh_old = arrays.nh_col(old_router)
        updated = arr[None, :] <= tsv[:, None]
        F = np.where(updated, nh_new[None, :], nh_old[None, :])
        good = np.zeros((len(ts), arrays.n), dtype=bool)
        good[:, arrays.index[new_router]] = True
        while True:
            grown = good | np.take_along_axis(good, F, axis=1)
            if (grown == good).all():
                break
            good = grown
        failed = ~good
        ever = failed.any(axis=0)
        last = (len(ts) - 1) - np.argmax(failed[::-1, :], axis=0)
        out = np.where(ever, tsv[last] + probe_step, 0.0)
        out[arrays.index[new_router]] = 0.0
        outage = {
            node: float(out[i]) for i, node in enumerate(self._nodes)
        }
        return MobilityOutage(
            old_router=old_router,
            new_router=new_router,
            convergence_time=convergence,
            outage_by_source=outage,
        )

    def _probe_grid(self, convergence: float, probe_step: float) -> list:
        """The probe instants, accumulated step by step as a per-probe
        walk would — float-identical, not ``arange``-close."""
        ts = []
        t = 0.0
        while t <= convergence + probe_step:
            ts.append(t)
            t += probe_step
        return ts

    def expected_outage(
        self, events: int, rng: random.Random
    ) -> Tuple[float, float]:
        """(mean, max) outage over random mobility events.

        The endpoint draws all come first; the unique new attachments
        then flood together (one batched multi-source BFS) before the
        per-event probes run.
        """
        pairs = []
        for _ in range(events):
            old = rng.choice(self._nodes)
            new = rng.choice(self._nodes)
            if old == new:
                continue
            pairs.append((old, new))
        if pairs:
            with obs.span("convergence.batch.arrivals"):
                self._arrays().hop_rows(
                    sorted({new for _, new in pairs}, key=repr)
                )
            obs.incr("convergence.batch.events", len(pairs))
        total = 0.0
        worst = 0.0
        count = 0
        for old, new in pairs:
            result = self.simulate_event(old, new)
            total += result.mean_outage()
            worst = max(worst, result.max_outage())
            count += 1
        return (total / count if count else 0.0, worst)

    # -- fault-aware propagation (repro.faults) ------------------------

    def lossy_update_arrival_times(
        self,
        new_router: Node,
        loss: MessageLossModel,
        retransmit: RetryPolicy,
        rng: random.Random,
        faults: Optional[FaultSchedule] = None,
    ) -> Tuple[Dict[Node, float], int]:
        """Arrival times of the update flood under message loss/faults.

        Returns ``(arrival_times, retransmissions)``. Each directed
        edge's transmission count is pre-sampled in a deterministic
        node order with a fixed number of uniforms per edge, so sweeps
        over ``loss.loss_rate`` under the same seed use common random
        numbers — arrival times are then monotone in the loss rate.
        A failed attempt costs its retransmit timeout; the successful
        one costs the per-hop delay (plus ``loss.extra_delay``).
        Crashed routers and downed links defer the crossing until the
        fault schedule brings them back.
        """
        if (faults is None or faults.empty) and loss.lossless:
            return self.update_arrival_times(new_router), 0
        faults = faults or FaultSchedule.EMPTY
        edge_delay: Dict[Tuple[Node, Node], float] = {}
        retransmissions = 0
        for u in self._nodes:
            for v in sorted(self._graph.neighbors(u), key=repr):
                draws = loss.draw_uniforms(retransmit.max_attempts, rng)
                attempts = loss.attempts_needed(draws)
                retransmissions += attempts - 1
                edge_delay[(u, v)] = (
                    retransmit.backoff_penalty(attempts - 1)
                    + self._delay
                    + loss.extra_delay
                )

        arrivals: Dict[Node, float] = {}
        heap: list = [(0.0, repr(new_router), new_router)]
        while heap:
            t, _, node = heapq.heappop(heap)
            if node in arrivals:
                continue
            arrivals[node] = t
            for neighbor in self._graph.neighbors(node):
                if neighbor in arrivals:
                    continue
                start = t
                # A crashed sender, downed link, or crashed receiver
                # defers the crossing; iterate because coming back up
                # on one can land inside an outage of another.
                while True:
                    adjusted = faults.next_up_time(ROUTER, node, start)
                    adjusted = faults.next_up_time(
                        LINK, (node, neighbor), adjusted
                    )
                    adjusted = faults.next_up_time(ROUTER, neighbor, adjusted)
                    if adjusted == start:
                        break
                    start = adjusted
                candidate = start + edge_delay[(node, neighbor)]
                heapq.heappush(heap, (candidate, repr(neighbor), neighbor))
        return arrivals, retransmissions

    def deliver_under_faults(
        self,
        source: Node,
        time: float,
        old_router: Node,
        new_router: Node,
        arrivals: Dict[Node, float],
        faults: FaultSchedule,
    ) -> bool:
        """Fault-aware probe: stale entries AND down elements drop it."""
        current = source
        visited = set()
        while True:
            if faults.is_down(ROUTER, current, time):
                return False
            if current == new_router:
                return True
            if current in visited:
                return False
            visited.add(current)
            target = new_router if arrivals.get(
                current, float("inf")
            ) <= time else old_router
            hop = self._nh(current)[target]
            if hop == current:
                return False
            if faults.is_down(LINK, (current, hop), time):
                return False
            current = hop

    def simulate_event_under_faults(
        self,
        old_router: Node,
        new_router: Node,
        rng: random.Random,
        loss: Optional[MessageLossModel] = None,
        retransmit: RetryPolicy = DEFAULT_RETRANSMIT,
        faults: Optional[FaultSchedule] = None,
        probe_step: float = 0.25,
    ) -> FaultyMobilityOutage:
        """:meth:`simulate_event` under a loss model and fault schedule.

        With an empty schedule and a lossless model this delegates to
        the pristine fault-free path, so the results are bit-identical
        — the invariant ``tests/test_faults_identity.py`` locks in.
        """
        loss = loss or MessageLossModel()
        if (faults is None or faults.empty) and loss.lossless:
            base = self.simulate_event(old_router, new_router, probe_step)
            return FaultyMobilityOutage(
                old_router=base.old_router,
                new_router=base.new_router,
                convergence_time=base.convergence_time,
                outage_by_source=base.outage_by_source,
                retransmissions=0,
            )
        faults = faults or FaultSchedule.EMPTY
        arrivals, retransmissions = self.lossy_update_arrival_times(
            new_router, loss, retransmit, rng, faults
        )
        convergence = max(arrivals.values())
        outage = self._probe_outages_under_faults(
            old_router, new_router, arrivals, faults, convergence, probe_step,
        )
        return FaultyMobilityOutage(
            old_router=old_router,
            new_router=new_router,
            convergence_time=convergence,
            outage_by_source=outage,
            retransmissions=retransmissions,
        )

    def _probe_outages_under_faults(
        self,
        old_router: Node,
        new_router: Node,
        arrivals: Dict[Node, float],
        faults: FaultSchedule,
        convergence: float,
        probe_step: float,
    ) -> Dict[Node, float]:
        """The fault-aware probe phase: per-source outage durations.

        Fault state is time-varying, so each probe instant evaluates
        the schedule once per node (router up? outgoing link up?) and
        then resolves all sources with one reachability fixpoint —
        instead of re-walking the path from every source. The failure
        conditions and their outcomes match
        :meth:`deliver_under_faults` case for case: a down router kills
        a probe even at the new attachment, a self-loop is the old
        attachment's blackhole, a revisit is a stale/fresh loop.
        """
        arrays = self._arrays()
        n = arrays.n
        nodes = self._nodes
        arr = np.full(n, np.inf)
        for node, when in arrivals.items():
            arr[arrays.index[node]] = when
        nh_new = arrays.nh_col(new_router)
        nh_old = arrays.nh_col(old_router)
        new_idx = arrays.index[new_router]
        self_idx = np.arange(n, dtype=np.int64)
        ts = self._probe_grid(convergence, probe_step)
        last = np.full(n, -1, dtype=np.int64)
        for ti, t in enumerate(ts):
            router_down = np.fromiter(
                (faults.is_down(ROUTER, node, t) for node in nodes),
                dtype=bool,
                count=n,
            )
            F = np.where(arr <= t, nh_new, nh_old)
            link_down = np.fromiter(
                (
                    faults.is_down(LINK, (node, nodes[F[i]]), t)
                    for i, node in enumerate(nodes)
                ),
                dtype=bool,
                count=n,
            )
            base = np.zeros(n, dtype=bool)
            base[new_idx] = not router_down[new_idx]
            eligible = ~router_down & (F != self_idx) & ~link_down
            good = base.copy()
            while True:
                grown = base | (eligible & good[F])
                if (grown == good).all():
                    break
                good = grown
            last[~good] = ti
        tsv = np.array(ts, dtype=np.float64)
        out = np.where(last >= 0, tsv[np.maximum(last, 0)] + probe_step, 0.0)
        out[new_idx] = 0.0
        return {node: float(out[i]) for i, node in enumerate(nodes)}

    def expected_outage_under_faults(
        self,
        events: int,
        rng: random.Random,
        loss: Optional[MessageLossModel] = None,
        retransmit: RetryPolicy = DEFAULT_RETRANSMIT,
        faults: Optional[FaultSchedule] = None,
    ) -> Tuple[float, float]:
        """(mean, max) outage over random mobility events under faults.

        Event endpoints are drawn from ``rng`` exactly as the pristine
        :meth:`expected_outage` draws them; per-event loss sampling uses
        an rng forked deterministically per event, so the mobility
        sequence is identical across loss rates (common random numbers).
        """
        loss = loss or MessageLossModel()
        if (faults is None or faults.empty) and loss.lossless:
            # Same rng stream as the pristine path — no per-event fork
            # draws — so the mobility sequence and results are identical.
            return self.expected_outage(events, rng)
        total = 0.0
        worst = 0.0
        count = 0
        for index in range(events):
            old = rng.choice(self._nodes)
            new = rng.choice(self._nodes)
            if old == new:
                continue
            event_rng = random.Random(f"{rng.randint(0, 2**31)}:{index}")
            result = self.simulate_event_under_faults(
                old, new, event_rng, loss, retransmit, faults
            )
            total += result.mean_outage()
            worst = max(worst, result.max_outage())
            count += 1
        return (total / count if count else 0.0, worst)
