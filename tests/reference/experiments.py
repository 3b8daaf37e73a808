"""Per-event and per-name loops: the world experiments' reference.

policy-sensitivity, fib-size and ablation-multihoming ask the §3.2 and
§3.3.1 questions of a whole workload through the batch functions in
:mod:`repro.core`, and fig12 reads its hour-0 best ports from the
content pass. These are the loops they replaced, written the plain
way: one event, segment or name at a time through the scalar public
APIs (``candidate_routes``, ``InterdomainPortMap.port_for_address``,
``ContentPortMapper.best_port``, ``best_route_for_address`` and
``update_for_event``). Each function returns what its experiment's
``run`` returns for the same ``world``, which needs only ``oracle``,
``topology``, ``routeviews``, the workload's ``segments``, ``user_ids``
and ``all_transitions()`` (its days read back as
:class:`~tests.reference.mobility.UserDay` records) and the two content
measurements.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core import (
    ContentPortMapper,
    ForwardingStrategy,
    aggregateability,
    lpm_forwarding_table,
)
from repro.core.displacement import InterdomainPortMap
from repro.experiments.exp_ablation_multihoming import MultihomingResult
from repro.experiments.exp_fib_size import FibSizeResult
from repro.experiments.exp_fig12 import Fig12Result
from repro.experiments.exp_policy_sensitivity import (
    POLICIES,
    PolicySensitivityResult,
)
from repro.mobility import HOURS_PER_DAY

from .content import set_at
from .mobility import build_multihomed_timeline, day_stats, user_days

__all__ = [
    "policy_sensitivity",
    "home_visits",
    "dominant_addresses",
    "fib_size",
    "single_attachment_updates",
    "multihomed_updates",
    "ablation_multihoming",
    "complete_forwarding_table",
    "fig12",
]


def policy_sensitivity(world) -> PolicySensitivityResult:
    """§3.2 policy rates: each policy's port per event, per router."""
    events = world.workload.all_transitions()
    oracle = world.oracle
    topology = world.topology
    rates: Dict[str, Dict[str, float]] = {}
    for policy_name, chooser in POLICIES.items():
        updates = {router.name: 0 for router in world.routeviews}
        for router in world.routeviews:
            cache: Dict[object, Optional[int]] = {}

            def port_for(ip) -> Optional[int]:
                prefix = topology.covering_prefix(ip)
                if prefix is None:
                    return None
                if prefix not in cache:
                    candidates = router.candidate_routes(oracle, prefix)
                    cache[prefix] = (
                        chooser(candidates).next_hop if candidates else None
                    )
                return cache[prefix]

            count = 0
            for event in events:
                old = port_for(event.old.ip)
                new = port_for(event.new.ip)
                if old is not None and new is not None and old != new:
                    count += 1
            updates[router.name] = count
        rates[policy_name] = {
            name: n / len(events) if events else 0.0
            for name, n in updates.items()
        }
    return PolicySensitivityResult(rates=rates, num_events=len(events))


def home_visits(days) -> List[Tuple[int, int]]:
    """Fig. 10's (home AS, visited AS) pairs, one ``day_stats`` a day."""
    pairs = []
    for user_day in days:
        stats = day_stats(user_day)
        home = stats.dominant_asn
        for asn in stats.hours_by_asn:
            if asn != home:
                pairs.append((home, asn))
    return pairs


def dominant_addresses(days) -> List[int]:
    """fib-size's dominant address value of each user-day."""
    dominant = []
    for user_day in days:
        hours_by_ip: Dict[int, float] = {}
        for segment in user_day.segments:
            ip = segment.location.ip.value
            hours_by_ip[ip] = hours_by_ip.get(ip, 0.0) + segment.duration_hours
        dominant.append(max(hours_by_ip, key=hours_by_ip.__getitem__))
    return dominant


def fib_size(world) -> FibSizeResult:
    """§6.2 displaced fraction: each segment against its day's home."""
    port_maps = [
        InterdomainPortMap(router, world.oracle) for router in world.routeviews
    ]
    displaced_hours = {pm.vantage.name: 0.0 for pm in port_maps}
    total_hours = 0.0
    days = user_days(world.workload)
    for user_day in days:
        # The dominant location: the address with the most residence
        # time over the whole day (§6.3.1's definition).
        hours_by_ip: Dict[object, float] = {}
        for segment in user_day.segments:
            ip = segment.location.ip
            hours_by_ip[ip] = hours_by_ip.get(ip, 0.0) + segment.duration_hours
        dominant_ip = max(hours_by_ip, key=lambda ip: hours_by_ip[ip])
        total_hours += HOURS_PER_DAY
        for pm in port_maps:
            home_port = pm.port_for_address(dominant_ip)
            if home_port is None:
                continue
            for segment in user_day.segments:
                if segment.location.ip == dominant_ip:
                    continue
                port = pm.port_for_address(segment.location.ip)
                if port is not None and port != home_port:
                    displaced_hours[pm.vantage.name] += segment.duration_hours
    fractions = {
        name: hours / total_hours for name, hours in displaced_hours.items()
    }
    return FibSizeResult(
        displaced_fraction=fractions,
        user_days=len(days),
    )


def single_attachment_updates(
    routers, oracle, events
) -> Tuple[Dict[str, int], int]:
    """``(updates per router, events)``: per-event best-route compare."""
    mappers = [ContentPortMapper(router, oracle) for router in routers]
    updates = {m.vantage.name: 0 for m in mappers}
    count = 0
    for event in events:
        count += 1
        for mapper in mappers:
            old = mapper.best_route_for_address(event.old.ip)
            new = mapper.best_route_for_address(event.new.ip)
            if old is not None and new is not None and (
                old.next_hop != new.next_hop
            ):
                updates[mapper.vantage.name] += 1
    return updates, count


def multihomed_updates(
    routers, oracle, timelines
) -> Tuple[Dict[str, int], Dict[str, int], int]:
    """``(best-port, controlled-flooding, events)`` over set timelines.

    One :meth:`ContentPortMapper.update_for_event` call per strategy,
    event and router; ``timelines`` carry ``events()`` of old and new
    address sets, like :class:`~tests.reference.mobility.MultihomedTimeline`.
    """
    mappers = [ContentPortMapper(router, oracle) for router in routers]
    best = {m.vantage.name: 0 for m in mappers}
    flooding = {m.vantage.name: 0 for m in mappers}
    count = 0
    for timeline in timelines:
        for event in timeline.events():
            count += 1
            for mapper in mappers:
                if mapper.update_for_event(
                    ForwardingStrategy.BEST_PORT,
                    event.old_addrs,
                    event.new_addrs,
                ):
                    best[mapper.vantage.name] += 1
                if mapper.update_for_event(
                    ForwardingStrategy.CONTROLLED_FLOODING,
                    event.old_addrs,
                    event.new_addrs,
                ):
                    flooding[mapper.vantage.name] += 1
    return best, flooding, count


def ablation_multihoming(
    world, dual_radio_prob: float = 0.7, seed: int = 2014
) -> MultihomingResult:
    """§3.3 on devices: both legs replayed event by event."""
    rng = random.Random(seed)
    by_user: Dict[str, List] = {}
    for user_day in user_days(world.workload):
        by_user.setdefault(user_day.user_id, []).append(user_day)
    timelines = []
    dual_count = 0
    for user_id in sorted(by_user):
        dual = rng.random() < dual_radio_prob
        dual_count += int(dual)
        timelines.append(
            build_multihomed_timeline(by_user[user_id], dual_radio=dual)
        )

    single, events_single = single_attachment_updates(
        world.routeviews, world.oracle, world.workload.all_transitions()
    )
    best, flooding, events_multi = multihomed_updates(
        world.routeviews, world.oracle, timelines
    )

    def rates(updates: Dict[str, int], events: int) -> Dict[str, float]:
        return {
            name: (count / events if events else 0.0)
            for name, count in updates.items()
        }

    return MultihomingResult(
        single=rates(single, events_single),
        multi_best_port=rates(best, events_multi),
        multi_flooding=rates(flooding, events_multi),
        dual_radio_users=dual_count,
        total_users=len(timelines),
        events_single=events_single,
        events_multi=events_multi,
    )


def complete_forwarding_table(mapper, address_sets) -> Dict[object, int]:
    """Best-port forwarding entry for every name (the complete table).

    Names whose address set yields no route at this router are omitted
    — a real router cannot install an entry it has no port for.
    """
    table: Dict[object, int] = {}
    for name in sorted(address_sets):
        port = mapper.best_port(address_sets[name])
        if port is not None:
            table[name] = port
    return table


def router_aggregateability(vantage, oracle, measurement):
    """One router's ``(ratio, complete, lpm)`` over hour-0 address sets."""
    mapper = ContentPortMapper(vantage, oracle)
    address_sets = {
        name: set_at(measurement.timeline(name), 0)
        for name in measurement.names()
    }
    complete = complete_forwarding_table(mapper, address_sets)
    lpm = lpm_forwarding_table(complete)
    return aggregateability(complete, lpm), complete, lpm


def fig12(world) -> Fig12Result:
    """Fig. 12: each router's hour-0 table built one name at a time."""
    popular: Dict[str, float] = {}
    sizes: Dict[str, Tuple[int, int]] = {}
    unpopular: Dict[str, float] = {}
    for router in world.routeviews:
        ratio, complete, lpm = router_aggregateability(
            router, world.oracle, world.popular_measurement
        )
        popular[router.name] = ratio
        sizes[router.name] = (len(complete), len(lpm))
        un_ratio, _, _ = router_aggregateability(
            router, world.oracle, world.unpopular_measurement
        )
        unpopular[router.name] = un_ratio
    return Fig12Result(popular=popular, table_sizes=sizes, unpopular=unpopular)
