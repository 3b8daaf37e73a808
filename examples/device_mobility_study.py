#!/usr/bin/env python3
"""Device mobility study: from a NomadLog-style trace to router update cost.

Walks the paper's full device pipeline on a small scale:

1. generate a synthetic Internet and a NomadLog-calibrated population,
   whose trace is one segment table (a row per stay at an address);
2. summarise per-user mobility (Figs. 6/7 statistics) from that table;
3. evaluate the update cost of pure name-based routing at the twelve
   RouteViews routers (Fig. 8) and compare the most and least affected.

Run:  python examples/device_mobility_study.py
"""

from repro.core import DeviceUpdateCostEvaluator
from repro.measurement import build_routeviews_routers
from repro.mobility import (
    MobilityWorkloadConfig,
    generate_workload,
    percentile,
    user_averages,
)
from repro.routing import RoutingOracle
from repro.topology import generate_as_topology


def main() -> None:
    print("1. Building the synthetic Internet and mobility workload...")
    topology = generate_as_topology()
    workload = generate_workload(
        topology, MobilityWorkloadConfig(num_users=120, num_days=5, seed=7)
    )
    print(
        f"   {len(topology)} ASes; {workload.num_users()} users x 5 days; "
        f"{len(workload.segments)} stays, "
        f"{len(workload.all_transitions())} mobility events.\n"
    )

    print("2. Per-user mobility statistics (Figs. 6-7)...")
    averages = user_averages(workload.segments, workload.user_ids)
    ips = [u.avg_distinct_ips for u in averages]
    ases = [u.avg_distinct_ases for u in averages]
    print(
        f"   median distinct IPs/day {percentile(ips, 0.5):.1f}, "
        f"ASes/day {percentile(ases, 0.5):.1f}; "
        f"{sum(1 for v in ips if v > 10) / len(ips) * 100:.0f}% of users "
        f"exceed 10 IPs/day.\n"
    )

    print("3. Update cost of pure name-based routing (Fig. 8)...")
    oracle = RoutingOracle(topology)
    routers = build_routeviews_routers(topology)
    report = DeviceUpdateCostEvaluator(routers, oracle).evaluate(
        workload.all_transitions()
    )
    for name, rate in sorted(report.rates.items(), key=lambda kv: -kv[1]):
        bar = "#" * int(rate * 200)
        print(f"   {name:14s} {rate * 100:6.2f}% {bar}")
    print(
        f"\n   The Oregon collectors see up to "
        f"{report.max_rate() * 100:.1f}% of all mobility events — the "
        "paper's argument that pure name-based routing cannot absorb "
        "device mobility, while a DNS-style resolver pays exactly one "
        "update per event."
    )


if __name__ == "__main__":
    main()
