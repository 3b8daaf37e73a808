"""Fault tolerance — graceful degradation across architectures (§8 gap).

The paper's §8 lists routing convergence delay and mobility-induced
outages among the metrics its empirical methodology could not evaluate.
This experiment measures them under explicit failure regimes, with
**one shared fault schedule** applied to every architecture:

* **name resolution** — resolver replicas suffer staggered outages; a
  retrying client (capped exponential backoff, failover to the
  next-nearest replica, degraded-mode cache serves) keeps resolving.
  Expected shape: availability rises monotonically with replica count,
  because each added replica can only shrink the all-replicas-down
  windows (they are nested by construction).
* **indirection routing** — the home agent crashes mid-run; without a
  backup the endpoint is unreachable for the whole outage, with a
  backup for only the failover delay. Expected shape: sharp
  degradation, bounded by failover.
* **name-based routing** — routing updates are flooded over a lossy
  control plane with per-router retransmit timers and exponential
  backoff. Expected shape: outage grows with the message-loss rate
  (and with topology diameter, as in the fault-free ablation).

All draws come from seeded :class:`random.Random` instances, and the
loss-rate sweep uses common random numbers, so the reported shapes are
deterministic properties of one run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core import FaultToleranceEvaluator, MobilityTimeline
from ..engine import Series, register
from ..faults import (
    HOME_AGENT,
    LINK,
    REPLICA,
    ROUTER,
    DegradationReport,
    FaultEvent,
    FaultSchedule,
    MessageLossModel,
    RetryPolicy,
)
from ..stats import sequential_sum
from ..topology import chain_topology
from .report import banner, render_table

__all__ = ["FaultToleranceResult", "run", "format_result", "series"]

#: One-way ms to each replica site from the client region, nearest
#: first — the order the replica-count sweep grows the deployment in.
REPLICA_SITES: Dict[str, Dict[str, float]] = {
    "us-east": {"us": 12.0},
    "us-west": {"us": 28.0},
    "eu": {"us": 55.0},
    "asia": {"us": 90.0},
}

#: Endpoint moves mid-run — both during replica outages, so a thin
#: deployment serves stale degraded answers while a deep one resolves.
MOVES: Tuple[Tuple[float, int], ...] = ((25.0, 22), (80.0, 11))


@dataclass
class FaultToleranceResult:
    """Degradation metrics per architecture plus the fault sweeps."""

    #: replica count -> resolution report under the replica outages.
    replica_sweep: List[Tuple[int, DegradationReport]]
    #: Indirection with a backup agent (failover) and without.
    indirection_failover: DegradationReport
    indirection_no_backup: DegradationReport
    failover_delay: float
    home_agent_outage: Tuple[float, float]
    #: loss rate -> name-based report under lossy update floods.
    loss_sweep: List[Tuple[float, DegradationReport]]
    #: All three under the one shared schedule, comparable columns.
    shared: Dict[str, DegradationReport]


def _shared_schedule(
    primary_agent: int, ha_outage: Tuple[float, float],
    horizon: float, seed: int,
) -> FaultSchedule:
    """The one schedule every architecture faces.

    Replica outages are scripted and staggered: each deeper replica
    fails for a *shorter* window around the second move, so the
    all-down window shrinks — strictly — with every replica added.
    The home agent crashes mid-run; a transit link flaps periodically;
    background router crashes and link failures arrive via the Poisson
    and Weibull generators (off the probed path — ambience that keeps
    the schedule honest without entangling the three headline shapes).
    """
    rng = random.Random(f"{seed}:ambient")
    replica_events = [
        FaultEvent(20.0, REPLICA, "us-east", 15.0),
        FaultEvent(75.0, REPLICA, "us-east", 20.0),
        FaultEvent(78.0, REPLICA, "us-west", 10.0),
        FaultEvent(80.0, REPLICA, "eu", 4.0),
    ]
    scripted = FaultSchedule(
        replica_events
        + [FaultEvent(ha_outage[0], HOME_AGENT, primary_agent, ha_outage[1])]
    )
    link_flap = FaultSchedule.flap(
        LINK, (2, 3), period=30.0, down_fraction=0.1,
        horizon=horizon, first_down=55.0,
    )
    ambient = FaultSchedule.poisson(
        ROUTER, [27, 28, 29, 30], rate=1.0 / 60.0, horizon=horizon,
        duration=lambda r: 5.0 + 5.0 * r.random(), rng=rng,
    ).merge(
        FaultSchedule.weibull(
            LINK, [(25, 26), (26, 27)], shape=0.8, scale=50.0,
            horizon=horizon, duration=4.0, rng=rng,
        )
    )
    return scripted.merge(link_flap).merge(ambient)


@register(
    "fault-tolerance",
    description="§8 fault injection: graceful degradation across architectures",
    section="§8",
    needs_world=False,
    tags=("faults",),
)
def run(
    n: int = 31,
    horizon: float = 120.0,
    probe_step: float = 0.5,
    loss_rates: Tuple[float, ...] = (0.0, 0.15, 0.3, 0.45),
    replica_counts: Tuple[int, ...] = (1, 2, 3, 4),
    failover_delay: float = 6.0,
    seed: int = 2014,
) -> FaultToleranceResult:
    """Run the three fault regimes on the §5 chain of ``n`` routers."""
    graph = chain_topology(n)
    timeline = MobilityTimeline(initial=4, moves=MOVES)
    correspondent = 1
    primary = (n + 1) // 2
    backup = (n + 1) // 4
    ha_outage = (40.0, 45.0)  # (start, duration)
    retry = RetryPolicy(
        initial_timeout=0.1,
        backoff_factor=2.0,
        max_timeout=1.0,
        max_attempts=4,
        jitter_fraction=0.1,
    )
    # TTL below the probe cadence: every probe resolves fresh, so
    # availability is driven by outages, not cache-timing luck — while
    # the last answer stays cached for degraded-mode serving.
    ttl_s = 0.4 * probe_step

    faults = _shared_schedule(primary, ha_outage, horizon, seed)
    evaluator = FaultToleranceEvaluator(
        graph, faults, horizon, probe_step, seed
    )

    # 1. Resolution availability vs deployment depth.
    replica_sweep = []
    for count in replica_counts:
        sites = {s: REPLICA_SITES[s] for s in list(REPLICA_SITES)[:count]}
        report = evaluator.evaluate_resolution(
            timeline, sites, retry, ttl_s=ttl_s
        )
        replica_sweep.append((count, report))

    # 2. Indirection through the home-agent crash, with/without backup.
    indirection_failover = evaluator.evaluate_indirection(
        timeline, correspondent, primary, backup, failover_delay
    )
    indirection_no_backup = evaluator.evaluate_indirection(
        timeline, correspondent, primary
    )

    # 3. Name-based outage vs message-loss rate (common random numbers).
    loss_sweep = []
    for rate in loss_rates:
        report = evaluator.evaluate_name_based(
            timeline, correspondent, MessageLossModel(rate)
        )
        loss_sweep.append((rate, report))

    # 4. Headline comparison: all three, one schedule, one table.
    shared = evaluator.evaluate_all(
        timeline,
        correspondent,
        primary,
        REPLICA_SITES,
        retry,
        backup_agent=backup,
        failover_delay=failover_delay,
        loss=MessageLossModel(0.15),
        ttl_s=ttl_s,
    )
    return FaultToleranceResult(
        replica_sweep=replica_sweep,
        indirection_failover=indirection_failover,
        indirection_no_backup=indirection_no_backup,
        failover_delay=failover_delay,
        home_agent_outage=ha_outage,
        loss_sweep=loss_sweep,
        shared=shared,
    )


def format_result(result: FaultToleranceResult) -> str:
    """Render the degradation tables."""
    replica_rows = [
        [
            count,
            f"{r.availability * 100:.1f}%",
            f"{r.stale_fraction * 100:.1f}%",
            f"{r.mean_latency:.0f}ms",
            f"{r.max_outage():.1f}s",
        ]
        for count, r in result.replica_sweep
    ]
    ind_rows = [
        [
            label,
            f"{r.availability * 100:.1f}%",
            f"{r.max_outage():.1f}s",
            f"{r.stale_fraction * 100:.1f}%",
        ]
        for label, r in [
            (f"backup, failover {result.failover_delay:.0f}s",
             result.indirection_failover),
            ("no backup", result.indirection_no_backup),
        ]
    ]
    loss_rows = [
        [
            f"{rate * 100:.0f}%",
            f"{r.availability * 100:.1f}%",
            f"{sequential_sum(r.outage_durations):.1f}",
            f"{r.max_outage():.1f}",
            f"{r.outage_percentile(0.9):.1f}",
        ]
        for rate, r in result.loss_sweep
    ]
    shared_rows = [
        [
            name,
            f"{r.availability * 100:.1f}%",
            f"{r.stale_fraction * 100:.1f}%",
            f"{r.mean_outage():.1f}",
            f"{r.max_outage():.1f}",
        ]
        for name, r in result.shared.items()
    ]
    start, duration = result.home_agent_outage
    lines = [
        banner("Fault tolerance -- graceful degradation across "
               "architectures (§8 gap)"),
        "Name resolution under staggered replica outages "
        "(retry + failover + degraded cache serves):",
        render_table(
            ["replicas", "availability", "stale serves", "mean lookup",
             "max outage"],
            replica_rows,
        ),
        f"\nIndirection routing: home agent down at t={start:.0f}s "
        f"for {duration:.0f}s:",
        render_table(
            ["configuration", "availability", "max outage", "stale"],
            ind_rows,
        ),
        "\nName-based routing: update floods over a lossy control "
        "plane (retransmit + backoff):",
        render_table(
            ["msg loss", "availability", "total outage", "max outage",
             "p90 outage"],
            loss_rows,
        ),
        "\nAll three under the one shared fault schedule "
        "(replica outages + home-agent crash + link flap + 15% loss):",
        render_table(
            ["architecture", "availability", "stale", "mean outage",
             "max outage"],
            shared_rows,
        ),
        "\nReading: resolution degrades gracefully with replica count; "
        "indirection degrades sharply on home-agent failure until "
        "failover; name-based outage stretches with control-plane loss "
        "— the §8 discussion as measured failure-regime curves.",
    ]
    return "\n".join(lines)

def series(result: FaultToleranceResult) -> list:
    """Tidy degradation metrics for the sweeps and the shared schedule."""
    return [
        Series(
            "fault_tolerance_replicas",
            ("replicas", "availability", "stale_fraction", "mean_latency_ms",
             "max_outage_s"),
            [
                [count, r.availability, r.stale_fraction, r.mean_latency,
                 r.max_outage()]
                for count, r in result.replica_sweep
            ],
        ),
        Series(
            "fault_tolerance_loss",
            ("loss_rate", "availability", "total_outage_s", "max_outage_s",
             "p90_outage_s"),
            [
                [rate, r.availability, sequential_sum(r.outage_durations),
                 r.max_outage(), r.outage_percentile(0.9)]
                for rate, r in result.loss_sweep
            ],
        ),
        Series(
            "fault_tolerance_shared",
            ("architecture", "availability", "stale_fraction",
             "mean_outage_s", "max_outage_s"),
            [
                [name, r.availability, r.stale_fraction, r.mean_outage(),
                 r.max_outage()]
                for name, r in result.shared.items()
            ],
        ),
    ]
