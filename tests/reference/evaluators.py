"""Per-event update-cost loops: the vectorized evaluators' reference.

Each function replays a workload one event at a time through the
public displacement and forwarding-strategy APIs — the §3.2 and §3.3.1
definitions written out directly — and returns what the vectorized
evaluators in :mod:`repro.core.evaluator` return.
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

__all__ = ["device_report", "per_day_rates", "content_report"]


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
        events = timeline.events()
        count += len(events)
        for mapper in mappers:
            union = UnionFloodingState()
            if strategy is ForwardingStrategy.UNION_FLOODING:
                # Seed the union with the initial address set so only
                # genuinely new locations count as updates.
                union.observe(mapper, name, timeline.set_at(0))
            for event in events:
                if mapper.update_for_event(
                    strategy, event.old_addrs, event.new_addrs, union, name
                ):
                    updates[mapper.vantage.name] += 1
    return _report(updates, count)
