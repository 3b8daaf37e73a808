"""Ablation — mobility outage across architectures (§2/§8 extension).

Quantifies the cost dimension the paper names but cannot measure:
how long communication to a moving endpoint is disrupted under

* **name-based routing** — updates flood hop-by-hop, stale routers
  blackhole or loop packets until convergence
  (:mod:`repro.forwarding.convergence`);
* **indirection routing** — one home-agent update: outage is a single
  registration RTT regardless of topology;
* **name resolution** — bounded by the binding TTL: correspondents may
  hold a stale address for up to TTL seconds
  (:mod:`repro.resolution.staleness`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..engine import Series, register
from ..forwarding import ConvergenceSimulator
from ..resolution import TtlPoint, simulate_ttl
from ..topology import binary_tree_topology, chain_topology, clique_topology
from ..workload import DeviceEventColumns
from .context import World
from .report import banner, render_table

__all__ = ["OutageResult", "run", "format_result", "series"]


@dataclass
class OutageResult:
    """Outage metrics per topology plus the TTL sweep."""

    #: topology -> (mean outage, max outage) in per-hop delay units.
    name_based: Dict[str, Tuple[float, float]]
    #: Indirection: outage = one registration round trip (constant).
    indirection_outage_hops: float
    ttl_points: List[TtlPoint]


@register(
    "ablation-outage",
    description="§2/§8 mobility-outage comparison",
    section="§8",
    needs_world=True,
    tags=("ablation", "outage"),
)
def run(
    world: World,
    n: int = 31,
    events: int = 60,
    ttls_s: Tuple[float, ...] = (0.0, 30.0, 300.0, 3600.0),
    seed: int = 2014,
) -> OutageResult:
    """Measure convergence outage on toy topologies and TTL staleness
    on the busiest real user of the device workload."""
    topologies = {
        "chain": chain_topology(n),
        "clique": clique_topology(n),
        "binary-tree": binary_tree_topology(n),
    }
    name_based = {}
    for label, graph in topologies.items():
        simulator = ConvergenceSimulator(graph)
        name_based[label] = simulator.expected_outage(
            events, random.Random(seed)
        )

    # TTL staleness for the most mobile user in the workload: users are
    # interned in order of first event, so the first maximal count is
    # the earliest-seen busiest user.
    columns = world.device_event_columns
    users = columns.table["user"]
    busiest = np.bincount(users).argmax()
    ttl_points = simulate_ttl(
        DeviceEventColumns(
            columns.table[users == busiest], columns.users
        ).to_events(),
        ttls_s=ttls_s,
        seed=seed,
    )
    return OutageResult(
        name_based=name_based,
        indirection_outage_hops=2.0,  # one registration round trip
        ttl_points=ttl_points,
    )


def format_result(result: OutageResult) -> str:
    """Render the outage comparison."""
    rows = [
        [label, f"{mean:.2f}", f"{worst:.2f}"]
        for label, (mean, worst) in result.name_based.items()
    ]
    ttl_rows = [
        [
            f"{p.ttl_s:.0f}s",
            p.connections,
            f"{p.failure_rate * 100:.2f}%",
            f"{p.cache_hit_rate * 100:.0f}%",
            f"{p.mean_lookup_ms:.1f}ms",
        ]
        for p in result.ttl_points
    ]
    lines = [
        banner("Ablation -- mobility outage across architectures (§2/§8)"),
        "Name-based routing: outage until hop-by-hop convergence "
        "(per-hop delay units):",
        render_table(["topology", "mean outage", "max outage"], rows),
        f"\nIndirection routing: constant ~{result.indirection_outage_hops:.0f} "
        "hop-delays (one home-agent registration), topology-independent.",
        "\nName resolution: staleness bounded by the binding TTL "
        "(busiest NomadLog user, Poisson connections):",
        render_table(
            ["TTL", "connections", "stale failures", "cache hits",
             "mean lookup"],
            ttl_rows,
        ),
        "\nReading: name-based outage grows with topology diameter; "
        "indirection is constant but stretches every packet; resolution "
        "trades failure probability against lookup amortization via the "
        "TTL — the quantified version of the paper's §8 discussion.",
    ]
    return "\n".join(lines)

def series(result: OutageResult) -> list:
    """Tidy outage metrics: per-topology convergence plus the TTL sweep."""
    return [
        Series(
            "ablation_outage",
            ("topology", "mean_outage", "max_outage"),
            [
                [label, mean, worst]
                for label, (mean, worst) in sorted(result.name_based.items())
            ],
        ),
        Series(
            "ablation_outage_ttl",
            ("ttl_s", "connections", "failure_rate", "cache_hit_rate",
             "mean_lookup_ms"),
            [
                [p.ttl_s, p.connections, p.failure_rate, p.cache_hit_rate,
                 p.mean_lookup_ms]
                for p in result.ttl_points
            ],
        ),
    ]
