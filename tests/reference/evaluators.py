"""Per-event update-cost loops: the vectorized evaluators' reference.

Each function replays a workload one event at a time through the
public displacement and forwarding-strategy APIs — the §3.2, §3.3.1
and §3.3.3 definitions written out directly — and returns what the
vectorized evaluators in :mod:`repro.core.evaluator` and
:mod:`repro.core.tradeoff` return.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import (
    ContentPortMapper,
    ForwardingStrategy,
    UnionFloodingState,
    UpdateRateReport,
)
from repro.core.displacement import InterdomainPortMap, interdomain_displaced
from repro.core.tradeoff import StrategyCosts, TradeoffResult

from .content import events, set_at

__all__ = [
    "device_report",
    "per_day_rates",
    "content_report",
    "time_averaged_port_sets",
    "union_table_sizes",
    "tradeoff_result",
]


def _report(updates: Dict[str, int], count: int) -> UpdateRateReport:
    rates = {
        name: (n / count if count else 0.0) for name, n in updates.items()
    }
    return UpdateRateReport(rates=rates, num_events=count, updates=updates)


def device_report(routers, oracle, events) -> UpdateRateReport:
    """Fig. 8 rates: one displacement test per (event, router)."""
    port_maps = [InterdomainPortMap(r, oracle) for r in routers]
    updates = {pm.vantage.name: 0 for pm in port_maps}
    count = 0
    for event in events:
        count += 1
        for pm in port_maps:
            if interdomain_displaced(pm, event):
                updates[pm.vantage.name] += 1
    return _report(updates, count)


def per_day_rates(routers, oracle, events) -> Dict[str, List[float]]:
    """§6.2.2 per-day rates: group events by day, evaluate each day."""
    by_day: Dict[int, list] = {}
    for event in events:
        by_day.setdefault(event.day, []).append(event)
    series: Dict[str, List[float]] = {}
    for day in sorted(by_day):
        report = device_report(routers, oracle, by_day[day])
        for router, rate in report.rates.items():
            series.setdefault(router, []).append(rate)
    return series


def content_report(
    routers, oracle, measurement, strategy: ForwardingStrategy
) -> UpdateRateReport:
    """Fig. 11(b)/(c) rates: one §3.3.1 test per (event, router)."""
    mappers = [ContentPortMapper(r, oracle) for r in routers]
    updates = {m.vantage.name: 0 for m in mappers}
    count = 0
    for name in measurement.names():
        timeline = measurement.timeline(name)
        name_events = events(timeline)
        count += len(name_events)
        for mapper in mappers:
            union = UnionFloodingState()
            if strategy is ForwardingStrategy.UNION_FLOODING:
                # Seed the union with the initial address set so only
                # genuinely new locations count as updates.
                union.observe(mapper, name, set_at(timeline, 0))
            for event in name_events:
                if mapper.update_for_event(
                    strategy, event.old_addrs, event.new_addrs, union, name
                ):
                    updates[mapper.vantage.name] += 1
    return _report(updates, count)


def time_averaged_port_sets(
    mapper: ContentPortMapper,
    measurement,
    accumulate: bool,
) -> Dict[str, float]:
    """Average eligible-port-set size per name, weighted by residence time.

    With ``accumulate=True`` the port set is the running union (the
    union-flooding data plane); otherwise it is the instantaneous set.
    Returns {"copies": time-averaged copies, "entries": final entries}.
    """
    total_hours = 0.0
    weighted_copies = 0.0
    entries = 0
    for name in measurement.names():
        timeline = measurement.timeline(name)
        union_ports: set = set()
        prev_hour = 0
        current_ports = mapper.eligible_ports(set_at(timeline, 0))
        union_ports |= current_ports
        for event in events(timeline) + [None]:
            end_hour = timeline.total_hours if event is None else event.hour
            span = end_hour - prev_hour
            size = len(union_ports) if accumulate else len(current_ports)
            weighted_copies += span * size
            total_hours += span
            if event is None:
                break
            prev_hour = event.hour
            current_ports = mapper.eligible_ports(event.new_addrs)
            union_ports |= current_ports
        entries += len(union_ports) if accumulate else len(current_ports)
    return {
        "copies": weighted_copies / total_hours if total_hours else 0.0,
        "entries": float(entries),
    }


def union_table_sizes(routers, oracle, measurement) -> Dict[str, int]:
    """§3.3.3 union state per router: every event folded into the union."""
    sizes = {}
    for mapper in [ContentPortMapper(r, oracle) for r in routers]:
        state = UnionFloodingState()
        for name in measurement.names():
            timeline = measurement.timeline(name)
            state.observe(mapper, name, set_at(timeline, 0))
            for event in events(timeline):
                state.observe(mapper, name, event.new_addrs)
        sizes[mapper.vantage.name] = state.table_size()
    return sizes


def tradeoff_result(routers, oracle, measurement) -> TradeoffResult:
    """The §3.3.3 cost triangle: per-event rates, replayed port sets."""
    reports = {
        strategy: content_report(routers, oracle, measurement, strategy)
        for strategy in ForwardingStrategy
    }
    costs: List[StrategyCosts] = []
    names = measurement.names()
    for router in routers:
        mapper = ContentPortMapper(router, oracle)
        flooding_stats = time_averaged_port_sets(
            mapper, measurement, accumulate=False
        )
        union_stats = time_averaged_port_sets(
            mapper, measurement, accumulate=True
        )
        per_strategy = {
            ForwardingStrategy.BEST_PORT: (1.0, float(len(names))),
            ForwardingStrategy.CONTROLLED_FLOODING: (
                flooding_stats["copies"],
                flooding_stats["entries"],
            ),
            ForwardingStrategy.UNION_FLOODING: (
                union_stats["copies"],
                union_stats["entries"],
            ),
        }
        for strategy, (copies, entries) in per_strategy.items():
            costs.append(
                StrategyCosts(
                    strategy=strategy,
                    router=router.name,
                    update_rate=reports[strategy].rates[router.name],
                    avg_copies_per_packet=copies,
                    table_entries=int(entries),
                )
            )
    return TradeoffResult(
        costs=costs,
        num_events=reports[ForwardingStrategy.BEST_PORT].num_events,
        num_names=len(names),
    )
