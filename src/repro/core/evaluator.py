"""Update-cost evaluation harness (§6.2, §7.2) and fault tolerance.

Combines a mobility workload (device transitions or content address
timelines) with a set of vantage routers and reports, per router, the
fraction of mobility events that induce a forwarding update — the
paper's *update rate* (Figs. 8 and 11b/c) — plus the sensitivity
statistics of §6.2.2 (per-day standard deviation, cross-workload
correlation).

:class:`FaultToleranceEvaluator` extends the harness to the failure
regimes of :mod:`repro.faults`: it probes all three architectures'
data paths on a fixed cadence while one shared fault schedule plays
out, producing the graceful-degradation metrics (availability,
outage-duration CDFs, stale-delivery fraction, recovery time) that the
paper's §8 names but could not measure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..faults import (
    HOME_AGENT,
    AvailabilityTrace,
    DegradationReport,
    FaultSchedule,
    MessageLossModel,
    RetryPolicy,
)
from ..forwarding.convergence import DEFAULT_RETRANSMIT, ConvergenceSimulator
from ..measurement.vantage import ContentMeasurement
from ..mobility import MobilityEvent
from ..resolution import NameResolutionService, RetryingResolver
from ..routing import RoutingOracle, VantagePoint
from ..routing.frontier import fib_keys, rank_vectors
from ..stats import median, sequential_sum
from ..topology import Graph
from ..workload import DeviceEventColumns, require_numpy
from ..workload.columns import unique_with_inverse
from .architectures import IndirectionRouting
from .displacement import (
    InterdomainPortMap,
    displaced,
    event_prefix_ids,
    prefix_ids,
)
from .strategies import ForwardingStrategy

np = require_numpy()

__all__ = [
    "UpdateRateReport",
    "DeviceUpdateCostEvaluator",
    "ContentCosts",
    "ContentUpdateCostEvaluator",
    "address_set_updates",
    "pearson_correlation",
    "per_day_update_rates",
    "MobilityTimeline",
    "FaultToleranceEvaluator",
]

Node = Hashable

#: The strategies whose forwarding state is a port set.
_FLOODING = (
    ForwardingStrategy.CONTROLLED_FLOODING,
    ForwardingStrategy.UNION_FLOODING,
)

#: Change points the content pass reduces at once. The bench's
#: measurement (~13K rows) is one batch; at paper scale (~373K rows)
#: batches keep the pair columns and per-router grids to a few MB.
_BATCH_ROWS = 1 << 16


@dataclass
class UpdateRateReport:
    """Per-router update rates for one workload."""

    rates: Dict[str, float]
    num_events: int
    updates: Dict[str, int]

    def max_rate(self) -> float:
        """The most affected router's rate."""
        return max(self.rates.values()) if self.rates else 0.0

    def median_rate(self) -> float:
        """The median router's rate."""
        if not self.rates:
            return 0.0
        return median(list(self.rates.values()))

    def rate_of(self, router_name: str) -> float:
        """One router's update rate."""
        return self.rates[router_name]


class DeviceUpdateCostEvaluator:
    """Fig. 8: fraction of device mobility events updating each router.

    Accepts either an iterable of :class:`MobilityEvent` or a
    :class:`~repro.workload.DeviceEventColumns` batch, and vectorizes
    over the event axis (unique-address prefix interning, one next-hop
    LUT gather per router). The parity tests hold it to bit-identical
    reports against a per-event ``interdomain_displaced`` loop.
    """

    def __init__(self, routers: Sequence[VantagePoint], oracle: RoutingOracle):
        if not routers:
            raise ValueError("need at least one vantage router")
        self._oracle = oracle
        self._port_maps = [InterdomainPortMap(r, oracle) for r in routers]

    def evaluate(self, events: Iterable[MobilityEvent]) -> UpdateRateReport:
        """Per-router update rate over ``events``."""
        columns = self._as_columns(events)
        count = len(columns)
        with obs.span("evaluator.batch.device"):
            obs.incr("evaluator.batch.device.events", count)
            flags = self._update_flags(columns)
            updates = {
                pm.vantage.name: int(np.count_nonzero(flag))
                for pm, flag in zip(self._port_maps, flags)
            }
        rates = {
            name: (n / count if count else 0.0) for name, n in updates.items()
        }
        return UpdateRateReport(rates=rates, num_events=count, updates=updates)

    # -- columnar internals --------------------------------------------

    @staticmethod
    def _as_columns(events) -> DeviceEventColumns:
        """Events in columnar form (no-op if already a batch)."""
        if isinstance(events, DeviceEventColumns):
            return events
        return DeviceEventColumns.from_events(events)

    def _update_flags(self, columns: DeviceEventColumns) -> List:
        """Per-router boolean arrays: does event ``i`` update router ``r``?

        The batch §3.2 displacement test over the event table's interned
        covering prefixes, one port LUT per router.
        """
        prefixes, old, new = event_prefix_ids(self._oracle.topology, columns)
        obs.incr("evaluator.batch.device.prefixes", len(prefixes))
        return [
            displaced(pm.port_table(prefixes), old, new)
            for pm in self._port_maps
        ]


@dataclass(frozen=True)
class ContentCosts:
    """Every §3.3 content cost of one measurement, at every router.

    What :meth:`ContentUpdateCostEvaluator.costs` computes in its one
    pass: update counts for all three strategies and, for the two
    flooding strategies, port-set sizes weighted by the hours each
    ``Addrs(d, t)`` set stood, plus each name's final port-set size;
    and each name's hour-0 best port, the complete forwarding table
    Fig. 12 reduces. All are integers, so every rate and copies value
    is one division away from them.
    """

    #: Router names, in the evaluator's order.
    routers: Tuple[str, ...]
    num_events: int
    num_names: int
    #: Hours summed over every name's measurement period.
    total_hours: int
    #: ``updates[strategy][router]``: events that change router state.
    updates: Dict[ForwardingStrategy, Dict[str, int]]
    #: ``port_hours[strategy][router]``: port-set size times the hours
    #: it stood, summed over change points (flooding strategies).
    port_hours: Dict[ForwardingStrategy, Dict[str, int]]
    #: ``entries[strategy][router]``: each name's final port-set size,
    #: summed over names (flooding strategies).
    entries: Dict[ForwardingStrategy, Dict[str, int]]
    #: ``hour0_ports[router][n]``: the best port for the ``n``-th of
    #: ``measurement.names()`` at hour 0, -1 when no address in its
    #: hour-0 set is routed.
    hour0_ports: Dict[str, Tuple[int, ...]]

    def report(self, strategy: ForwardingStrategy) -> UpdateRateReport:
        """Per-router update rates for ``strategy``, in fresh dicts."""
        updates = dict(self.updates[strategy])
        count = self.num_events
        rates = {
            name: (n / count if count else 0.0) for name, n in updates.items()
        }
        return UpdateRateReport(rates=rates, num_events=count, updates=updates)

    def copies_per_packet(
        self, strategy: ForwardingStrategy, router: str
    ) -> float:
        """Copies sent per forwarded packet, averaged over time."""
        if strategy is ForwardingStrategy.BEST_PORT:
            return 1.0
        hours = self.total_hours
        return self.port_hours[strategy][router] / hours if hours else 0.0

    def table_entries(self, strategy: ForwardingStrategy, router: str) -> int:
        """(name, port) entries held at the end of the measurement."""
        if strategy is ForwardingStrategy.BEST_PORT:
            return self.num_names
        return self.entries[strategy][router]


class _Rows:
    """Address-set timelines' change points, stacked in order.

    Row ``first[n]`` holds timeline ``n``'s initial address set and
    each following row up to ``last[n]`` one of its mobility events.
    """

    def __init__(self, matrices: Sequence):
        counts = np.array([len(m.hours) for m in matrices], dtype=np.int64)
        self.count = int(counts.sum())
        self.first = np.cumsum(counts) - counts
        self.last = self.first + counts - 1
        #: Each row's timeline index.
        self.name = np.repeat(np.arange(len(matrices), dtype=np.int32), counts)
        self._event = np.ones(self.count, dtype=bool)
        self._event[self.first] = False

    def updates(self, changed) -> int:
        """Events whose row differs from the row before it.

        ``changed[i]`` compares row ``i + 1`` with row ``i``; the pair
        across two timelines is no event and is skipped.
        """
        return int(np.count_nonzero(changed & self._event[1:]))


class ContentUpdateCostEvaluator:
    """Fig. 11(b)/(c) and §3.3.3: content mobility costs per router.

    :meth:`costs` reduces a measurement once for every router and
    strategy and memoizes the result; :meth:`evaluate`,
    :meth:`union_table_sizes`,
    :func:`~repro.core.tradeoff.evaluate_tradeoff` and Fig. 12 read it.
    The parity tests hold every read to the per-event §3.3.1
    definitions in :mod:`repro.core.strategies` and the §3.3.3 replays
    in ``tests/reference``.
    """

    def __init__(self, routers: Sequence[VantagePoint], oracle: RoutingOracle):
        if not routers:
            raise ValueError("need at least one vantage router")
        self._oracle = oracle
        self._routers = list(routers)
        #: ``id(measurement) -> (measurement, costs)``; holding the
        #: measurement keeps its id from passing to another object.
        self._memo: Dict[int, Tuple[ContentMeasurement, ContentCosts]] = {}

    def costs(self, measurement: ContentMeasurement) -> ContentCosts:
        """Every content cost of ``measurement``: one pass, memoized."""
        entry = self._memo.get(id(measurement))
        if entry is None:
            with obs.span("evaluator.batch.content"):
                costs = self._reduce(measurement)
                obs.incr("evaluator.batch.content.events", costs.num_events)
            entry = self._memo[id(measurement)] = (measurement, costs)
        return entry[1]

    def evaluate(
        self,
        measurement: ContentMeasurement,
        strategy: ForwardingStrategy,
    ) -> UpdateRateReport:
        """Per-router update rate over every event in ``measurement``.

        A read of :meth:`costs`: the first call for a measurement makes
        its pass, every later one builds the report from the memo.
        """
        return self.costs(measurement).report(strategy)

    def union_table_sizes(
        self, measurement: ContentMeasurement
    ) -> Dict[str, int]:
        """Accumulated union-strategy state per router (the §3.3.3 cost)."""
        return dict(
            self.costs(measurement).entries[ForwardingStrategy.UNION_FLOODING]
        )

    def _reduce(self, measurement: ContentMeasurement) -> ContentCosts:
        names = measurement.names()
        # [router, strategy in _router_costs' order, (updates,
        # port-hours, entries)]
        sums = np.zeros((len(self._routers), 3, 3), dtype=np.int64)
        hour0_ports: List[List[int]] = [[] for _ in self._routers]
        num_events = total_hours = 0
        for batch in _batches([measurement.timeline(n) for n in names]):
            matrices = [timeline.as_matrix() for timeline in batch]
            rows = _Rows(matrices)
            hours = np.concatenate([m.hours for m in matrices])
            # Hours each row's set stands: up to the name's next change
            # point, or to the end of its period on its last row.
            stay = np.diff(hours, append=0)
            stay[rows.last] = (
                np.array([t.total_hours for t in batch]) - hours[rows.last]
            )
            prefixes, pairs = _prefix_pairs(
                self._oracle.topology, matrices, rows
            )
            for costs, ports, router in zip(
                sums, hour0_ports, self._routers
            ):
                initial, router_costs = _router_costs(
                    fib_keys(router, self._oracle, prefixes),
                    rank_vectors(router)[0], pairs, rows, stay,
                )
                costs += router_costs
                ports.extend(initial.tolist())
            num_events += rows.count - len(batch)
            total_hours += int(stay.sum())
        routers = tuple(router.name for router in self._routers)
        order = (ForwardingStrategy.BEST_PORT,) + _FLOODING

        def per_router(strategy, field) -> Dict[str, int]:
            column = sums[:, order.index(strategy), field].tolist()
            return dict(zip(routers, column))

        return ContentCosts(
            routers=routers,
            num_events=num_events,
            num_names=len(names),
            total_hours=total_hours,
            updates={s: per_router(s, 0) for s in ForwardingStrategy},
            port_hours={s: per_router(s, 1) for s in _FLOODING},
            entries={s: per_router(s, 2) for s in _FLOODING},
            hour0_ports={
                router: tuple(ports)
                for router, ports in zip(routers, hour0_ports)
            },
        )


def _batches(timelines: Sequence) -> Iterable[List]:
    """Consecutive runs of timelines, about ``_BATCH_ROWS`` rows each."""
    batch, rows = [], 0
    for timeline in timelines:
        batch.append(timeline)
        rows += timeline.num_changes() + 1
        if rows >= _BATCH_ROWS:
            yield batch
            batch, rows = [], 0
    if batch:
        yield batch


def _prefix_pairs(topology, matrices: Sequence, rows: _Rows):
    """Covering prefixes of stacked address-set rows, as pairs.

    Returns ``(prefixes, (row, pid))``: the :func:`prefix_ids` interning
    of every address in ``matrices``, and the distinct ``(row, prefix
    id)`` pairs as int32 columns. Addresses no prefix covers drop out,
    and addresses one prefix covers collapse into one pair per row.
    """
    prefixes, ids = prefix_ids(
        topology,
        np.concatenate([np.zeros(0, dtype=np.int64)]
                       + [m.addrs for m in matrices]),
    )
    width = max(len(prefixes), 1)
    pair_rows = [np.zeros(0, dtype=np.int32)]
    pair_pids = [np.zeros(0, dtype=np.int32)]
    offset = 0
    for first, matrix in zip(rows.first.tolist(), matrices):
        row, column = np.nonzero(matrix.membership)
        pid = ids[offset + column]
        offset += matrix.num_addrs
        covered = pid >= 0
        row, pid = np.divmod(
            np.unique(row[covered] * width + pid[covered]), width
        )
        pair_rows.append((row + first).astype(np.int32))
        pair_pids.append(pid.astype(np.int32))
    return prefixes, (np.concatenate(pair_rows), np.concatenate(pair_pids))


def _row_ports(keys, nbr_asns, pairs, rows: _Rows):
    """Each row's best port and eligible-port grid at one router.

    ``keys[i]`` is the router's :func:`~repro.routing.frontier.fib_keys`
    key for prefix ``i`` (-1 when it has no route), and ``nbr_asns``
    its neighbors in key-index order. Returns ``(best, grid)``:
    ``best[r]`` is the port of row ``r``'s best route (-1 when no
    address in it is routed), and ``grid[r, j]`` says whether the
    ``j``-th smallest port the routes use is eligible at row ``r``.

    Parity with the per-event definitions rests on two facts: keys
    order routes across prefixes as the §6.2.1 decision process does
    (:meth:`~repro.routing.VantagePoint.next_hop_table` states the
    condition), so the row-minimum key names the per-event best port;
    and a flooding port set is a pure function of the prefixes present
    in a row.
    """
    row, pid = pairs
    routed = keys >= 0
    # Per prefix: the dense rank of its key, and the grid column of its
    # next hop (neighbor indices ascend with ASN). Unrouted prefixes
    # take the last rank, port -1 and a last, unread column.
    ranked, rank_of = unique_with_inverse(keys[routed])
    hops = ranked % len(nbr_asns)
    used, column_of = unique_with_inverse(hops)
    rank = np.full(len(keys), len(ranked), dtype=np.int32)
    rank[routed] = rank_of
    column = np.full(len(keys), len(used), dtype=np.int32)
    column[routed] = column_of[rank_of]
    port_of_rank = np.append(nbr_asns[hops], -1)

    best = np.full(rows.count, len(ranked), dtype=np.int32)
    np.minimum.at(best, row, rank[pid])
    grid = np.zeros((rows.count, len(used) + 1), dtype=bool)
    grid[row, column[pid]] = True
    return port_of_rank[best], grid[:, :-1]


def _router_costs(keys, nbr_asns, pairs, rows: _Rows, stay):
    """One router's hour-0 best ports and its costs per strategy.

    Returns ``(initial, costs)``: ``initial[n]`` is the best port of
    timeline ``n``'s first row, its hour-0 set (-1 when unrouted), and
    ``costs`` holds ``(updates, port-hours, entries)`` for best-port,
    controlled flooding and union flooding, in that order; best-port
    holds no port set, so its port-hours and entries are 0. ``stay[r]``
    is the hours row ``r``'s set stood. A union port set is a pure
    function of the prefixes ever seen, so it grows from the rows of
    :func:`_row_ports`' grid.
    """
    best, grid = _row_ports(keys, nbr_asns, pairs, rows)

    def flooding(sizes, changed) -> Tuple[int, int, int]:
        return (
            rows.updates(changed),
            int(stay @ sizes),
            int(sizes[rows.last].sum()),
        )

    # A port joins a name's union at the first row that routes to it.
    row, column = np.nonzero(grid)
    first = np.full((len(rows.first), grid.shape[1]), rows.count)
    np.minimum.at(first, (rows.name[row], column), row)
    joined = np.bincount(first[first < rows.count], minlength=rows.count)
    running = np.cumsum(joined)
    union = running - (running - joined)[rows.first][rows.name]
    return best[rows.first], (
        (rows.updates(best[1:] != best[:-1]), 0, 0),
        flooding(
            np.count_nonzero(grid, axis=1), (grid[1:] != grid[:-1]).any(axis=1)
        ),
        flooding(union, joined[1:] > 0),
    )


def address_set_updates(
    routers: Sequence[VantagePoint],
    oracle: RoutingOracle,
    matrices: Sequence,
) -> Dict[ForwardingStrategy, Dict[str, int]]:
    """Best-port and controlled-flooding updates over address-set rows.

    The content pass's row reduction for any
    :class:`~repro.workload.AddrsMatrix` timelines, whatever their
    hours: per router, the events of ``matrices`` that change
    ``best(FIB(R, d, t))`` and ``FIB(R, d, t)``, as the per-event
    §3.3.1 test counts them. Returns ``{strategy: {router name:
    updates}}``.
    """
    rows = _Rows(matrices)
    prefixes, pairs = _prefix_pairs(oracle.topology, matrices, rows)
    best_port = {}
    flooding = {}
    for router in routers:
        best, grid = _row_ports(
            fib_keys(router, oracle, prefixes), rank_vectors(router)[0],
            pairs, rows,
        )
        best_port[router.name] = rows.updates(best[1:] != best[:-1])
        flooding[router.name] = rows.updates(
            (grid[1:] != grid[:-1]).any(axis=1)
        )
    return {
        ForwardingStrategy.BEST_PORT: best_port,
        ForwardingStrategy.CONTROLLED_FLOODING: flooding,
    }


def per_day_update_rates(
    evaluator: DeviceUpdateCostEvaluator,
    events: Iterable[MobilityEvent],
) -> Dict[str, List[float]]:
    """§6.2.2 sensitivity to time: update rate per router per day.

    Per-event update flags are computed once for the whole batch and
    reduced day by day. Grouping by the sorted distinct days and
    dividing the same integers, the series (and their ledger digests)
    equal evaluating each day's events on their own.
    """
    columns = evaluator._as_columns(events)
    if not len(columns):
        return {}
    with obs.span("evaluator.batch.per_day"):
        flags = evaluator._update_flags(columns)
        days, day_inverse = unique_with_inverse(columns.as_columns().day)
        counts = np.bincount(day_inverse, minlength=len(days))
        series = {}
        for pm, flag in zip(evaluator._port_maps, flags):
            day_updates = np.bincount(
                day_inverse[flag], minlength=len(days)
            )
            series[pm.vantage.name] = [
                int(n) / int(c) for n, c in zip(day_updates, counts)
            ]
    return series


@dataclass(frozen=True)
class MobilityTimeline:
    """One endpoint's attachment history over the probe horizon."""

    initial: Node
    #: Time-sorted ``(time, new_router)`` moves.
    moves: Tuple[Tuple[float, Node], ...] = ()

    def __post_init__(self):
        times = [t for t, _ in self.moves]
        if times != sorted(times):
            raise ValueError("moves must be time-sorted")

    def position_at(self, time: float) -> Node:
        """Where the endpoint is attached at ``time``."""
        position = self.initial
        for move_time, router in self.moves:
            if move_time <= time:
                position = router
            else:
                break
        return position

    def transitions(self) -> List[Tuple[float, Node, Node]]:
        """``(time, old_router, new_router)`` per move."""
        result = []
        position = self.initial
        for move_time, router in self.moves:
            result.append((move_time, position, router))
            position = router
        return result


class FaultToleranceEvaluator:
    """Probe the three architectures under one shared fault schedule.

    Every architecture faces the same topology, the same endpoint
    :class:`MobilityTimeline`, the same correspondent, and the same
    :class:`~repro.faults.FaultSchedule`; each is probed every
    ``probe_step`` over ``[0, horizon)`` and summarized as a
    :class:`~repro.faults.DegradationReport`. Latency units differ by
    architecture (hops for indirection/name-based, milliseconds for
    resolution) — availability, outages, and staleness are the
    comparable columns.

    With an empty schedule and lossless control plane, every
    architecture reports availability 1.0 and no stale deliveries
    once registrations settle — the no-fault identity the property
    tests pin down.
    """

    def __init__(
        self,
        graph: Graph,
        faults: Optional[FaultSchedule] = None,
        horizon: float = 120.0,
        probe_step: float = 0.5,
        seed: int = 2014,
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if probe_step <= 0:
            raise ValueError("probe_step must be positive")
        self._graph = graph
        self._faults = faults or FaultSchedule.EMPTY
        self._horizon = horizon
        self._probe_step = probe_step
        self._seed = seed

    def _probe_times(self) -> List[float]:
        times = []
        t = 0.0
        while t < self._horizon:
            times.append(t)
            t += self._probe_step
        return times

    # -- indirection ---------------------------------------------------

    def evaluate_indirection(
        self,
        timeline: MobilityTimeline,
        correspondent: Node,
        primary_agent: Node,
        backup_agent: Optional[Node] = None,
        failover_delay: float = 0.0,
        registration_delay: float = 2.0,
    ) -> DegradationReport:
        """Home-agent indirection under home-agent failures.

        A probe is delivered when a live agent holds the endpoint's
        current binding; while the primary is down and failover has
        not completed, every probe fails — the sharp degradation the
        architecture is known for.
        """
        arch = IndirectionRouting(self._graph, home_agent=primary_agent)
        dist_corr = self._graph.bfs_distances(correspondent)

        # Registration pipeline: a move's new binding reaches the agent
        # system registration_delay after an agent is next reachable.
        registrations: List[Tuple[float, Node]] = []
        for move_time, _, new_router in timeline.transitions():
            reachable_at = self._next_agent_active(
                arch, move_time, backup_agent, failover_delay
            )
            registrations.append(
                (reachable_at + registration_delay, new_router)
            )

        trace = AvailabilityTrace(self._probe_step)
        for t in self._probe_times():
            agent = arch.active_agent_at(
                t, self._faults, backup_agent, failover_delay
            )
            if agent is None:
                trace.record(t, delivered=False)
                continue
            belief = timeline.initial
            for done_at, router in registrations:
                if done_at <= t:
                    belief = router
                else:
                    break
            actual = timeline.position_at(t)
            dist_agent = self._graph.bfs_distances(agent)
            latency = float(dist_corr[agent] + dist_agent[belief])
            delivered = belief == actual
            trace.record(
                t, delivered=delivered, stale=not delivered, latency=latency
            )
        return DegradationReport.from_trace("indirection", trace)

    def _next_agent_active(
        self,
        arch: IndirectionRouting,
        start: float,
        backup_agent: Optional[Node],
        failover_delay: float,
    ) -> float:
        """Earliest time >= ``start`` with a live agent (inf if never)."""
        t = start
        for _ in range(2 * len(self._faults.events) + 2):
            if arch.active_agent_at(
                t, self._faults, backup_agent, failover_delay
            ) is not None:
                return t
            candidates = []
            primary = self._faults.interval_containing(
                HOME_AGENT, arch.home_agent, t
            )
            if primary is not None:
                if backup_agent is not None:
                    candidates.append(primary[0] + failover_delay)
                candidates.append(primary[1])
            if backup_agent is not None:
                backup = self._faults.interval_containing(
                    HOME_AGENT, backup_agent, t
                )
                if backup is not None:
                    candidates.append(backup[1])
            upcoming = [c for c in candidates if c > t]
            if not upcoming:
                return math.inf
            t = min(upcoming)
        return t

    # -- name resolution -----------------------------------------------

    def evaluate_resolution(
        self,
        timeline: MobilityTimeline,
        replica_latency_ms: Dict[str, Dict[str, float]],
        retry: RetryPolicy,
        client_region: str = "us",
        ttl_s: float = 5.0,
        propagation_ms: float = 50.0,
        name: str = "endpoint",
    ) -> DegradationReport:
        """Resolution under replica outages, via a retrying client.

        The device updates the service at each move (the §2 O(1)
        update); the correspondent resolves through a TTL cache with
        retry/failover. Stale deliveries come from the TTL window and
        from degraded-mode answers while every replica is down.
        """
        service = NameResolutionService(
            replica_latency_ms,
            propagation_ms=propagation_ms,
            fault_schedule=self._faults,
        )
        resolver = RetryingResolver(
            service,
            client_region,
            retry,
            rng=random.Random(self._seed),
            ttl_s=ttl_s,
        )
        service.update(name, [timeline.initial], now=-1.0)
        pending = timeline.transitions()
        trace = AvailabilityTrace(self._probe_step)
        for t in self._probe_times():
            while pending and pending[0][0] <= t:
                move_time, _, new_router = pending.pop(0)
                service.update(name, [new_router], now=move_time)
            outcome = resolver.resolve(name, t)
            if not outcome.resolved:
                trace.record(
                    t, delivered=False, latency=outcome.total_latency_ms
                )
                continue
            actual = timeline.position_at(t)
            delivered = actual in outcome.result.locations
            trace.record(
                t,
                delivered=delivered,
                stale=(not delivered) or outcome.degraded,
                latency=outcome.total_latency_ms,
            )
        return DegradationReport.from_trace("name-resolution", trace)

    # -- name-based routing --------------------------------------------

    def evaluate_name_based(
        self,
        timeline: MobilityTimeline,
        correspondent: Node,
        loss: Optional[MessageLossModel] = None,
        retransmit: RetryPolicy = DEFAULT_RETRANSMIT,
        per_hop_delay: float = 1.0,
    ) -> DegradationReport:
        """Name-based routing under control-plane loss and faults.

        Each move triggers a lossy hop-by-hop update flood; probes fail
        while the correspondent's path still chases the old attachment
        (the per-source convergence outage) and while a router or link
        on the converged path is down.
        """
        loss = loss or MessageLossModel()
        simulator = ConvergenceSimulator(self._graph, per_hop_delay)
        dist_corr = self._graph.bfs_distances(correspondent)

        # Per-move convergence outage as seen from the correspondent,
        # sampled with a per-move rng fork so sweeps over the loss rate
        # reuse identical draws (common random numbers).
        outages: List[Tuple[float, float]] = []  # (move time, outage)
        for index, (move_time, old, new) in enumerate(
            timeline.transitions()
        ):
            event_rng = random.Random(f"{self._seed}:{index}")
            result = simulator.simulate_event_under_faults(
                old,
                new,
                event_rng,
                loss=loss,
                retransmit=retransmit,
                probe_step=min(self._probe_step, 0.25),
            )
            outages.append(
                (move_time, result.outage_by_source.get(correspondent, 0.0))
            )

        trace = AvailabilityTrace(self._probe_step)
        for t in self._probe_times():
            converging = False
            for move_time, outage in outages:
                if move_time <= t < move_time + outage:
                    converging = True
            actual = timeline.position_at(t)
            path_ok = self._data_path_up(correspondent, actual, t)
            delivered = (not converging) and path_ok
            trace.record(
                t,
                delivered=delivered,
                stale=converging,
                latency=float(dist_corr[actual]),
            )
        return DegradationReport.from_trace("name-based", trace)

    def _data_path_up(self, source: Node, target: Node, time: float) -> bool:
        from ..faults import LINK, ROUTER

        path = self._graph.shortest_path(source, target)
        if path is None:
            return False
        for node in path:
            if self._faults.is_down(ROUTER, node, time):
                return False
        for u, v in zip(path, path[1:]):
            if self._faults.is_down(LINK, (u, v), time):
                return False
        return True

    # -- all three, one schedule ---------------------------------------

    def evaluate_all(
        self,
        timeline: MobilityTimeline,
        correspondent: Node,
        primary_agent: Node,
        replica_latency_ms: Dict[str, Dict[str, float]],
        retry: RetryPolicy,
        backup_agent: Optional[Node] = None,
        failover_delay: float = 0.0,
        loss: Optional[MessageLossModel] = None,
        ttl_s: float = 5.0,
    ) -> Dict[str, DegradationReport]:
        """All three architectures under the one shared schedule."""
        return {
            "indirection": self.evaluate_indirection(
                timeline,
                correspondent,
                primary_agent,
                backup_agent,
                failover_delay,
            ),
            "name-resolution": self.evaluate_resolution(
                timeline, replica_latency_ms, retry, ttl_s=ttl_s
            ),
            "name-based": self.evaluate_name_based(
                timeline, correspondent, loss
            ),
        }


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (the §6.2.2 workload comparison)."""
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    n = len(xs)
    mx = sequential_sum(xs) / n
    my = sequential_sum(ys) / n
    cov = sequential_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sequential_sum((x - mx) ** 2 for x in xs)
    vy = sequential_sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        raise ValueError("correlation undefined for a constant series")
    return cov / math.sqrt(vx * vy)
