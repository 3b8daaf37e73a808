"""§3.2 — route-selection policy determines the update cost.

"The policy used to select routes, e.g., shortest-path routing or
BGP-style policy-driven route selection, matters because that is what
determines the forwarding table at a router." This experiment makes
the claim quantitative: the same RIBs and the same mobility events are
evaluated under three decision processes —

* **bgp** — the paper's §6.2.1 rules (relationship > path length >
  MED > lowest next hop);
* **shortest-only** — ignore business relationships, rank purely by
  AS-path length (then lowest next hop);
* **sticky-random** — a degenerate stable policy: pick a
  deterministic-per-prefix random candidate (what a router with
  arbitrary-but-fixed preferences would do).

Update rates shift across policies while the router ordering largely
survives; the decision process is a first-class input to the
methodology, not a detail.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..core.displacement import displaced, event_prefix_ids
from ..engine import Series, register
from ..routing import Route, rank_key
from .context import World
from .report import banner, render_table

__all__ = ["PolicySensitivityResult", "POLICIES", "run", "format_result",
           "series"]


def _best_bgp(routes: List[Route]) -> Route:
    return min(routes, key=rank_key)


def _best_shortest(routes: List[Route]) -> Route:
    return min(routes, key=lambda r: (r.path_length(), r.next_hop))


def _best_sticky_random(routes: List[Route]) -> Route:
    def key(route: Route) -> int:
        seed = (route.prefix.network << 8) ^ route.next_hop
        return zlib.crc32(seed.to_bytes(8, "big"))

    return min(routes, key=key)


#: policy name -> best-route chooser over a non-empty candidate list.
POLICIES: Dict[str, Callable[[List[Route]], Route]] = {
    "bgp": _best_bgp,
    "shortest-only": _best_shortest,
    "sticky-random": _best_sticky_random,
}


@dataclass
class PolicySensitivityResult:
    """Per-policy, per-router update rates over the same events."""

    #: policy -> router -> rate.
    rates: Dict[str, Dict[str, float]]
    num_events: int


@register(
    "policy-sensitivity",
    description="§3.2 route-selection-policy sensitivity",
    section="§3.2",
    needs_world=True,
    tags=("robustness", "name-based"),
)
def run(world: World) -> PolicySensitivityResult:
    """Evaluate the device workload under every policy.

    Each router's RIB is read once per touched prefix; every policy
    then picks its port per prefix and runs the batch §3.2 test.
    """
    columns = world.device_event_columns
    count = len(columns)
    prefixes, old, new = event_prefix_ids(world.topology, columns)
    rates: Dict[str, Dict[str, float]] = {policy: {} for policy in POLICIES}
    for router in world.routeviews:
        candidates = [
            router.candidate_routes(world.oracle, prefix)
            for prefix in prefixes
        ]
        for policy, chooser in POLICIES.items():
            ports = [chooser(c).next_hop if c else -1 for c in candidates]
            updates = int(displaced(ports, old, new).sum())
            rates[policy][router.name] = updates / count if count else 0.0
    return PolicySensitivityResult(rates=rates, num_events=count)


def format_result(result: PolicySensitivityResult) -> str:
    """Render per-policy rates side by side."""
    policies = list(result.rates)
    routers = sorted(result.rates[policies[0]])
    rows = [
        [router]
        + [f"{result.rates[p][router] * 100:.2f}%" for p in policies]
        for router in routers
    ]
    lines = [
        banner("§3.2 -- update cost under different route-selection "
               "policies"),
        render_table(["router"] + policies, rows),
        f"({result.num_events} device mobility events; identical RIBs, "
        "different decision processes)",
        "The forwarding table — and therefore the update cost of "
        "name-based routing — is a function of the selection policy, "
        "which is why the paper evaluates against real RIBs instead of "
        "a modelled Internet.",
    ]
    return "\n".join(lines)


def series(result: PolicySensitivityResult) -> list:
    """Tidy per-(policy, router) update rates."""
    return [
        Series(
            "policy_sensitivity",
            ("policy", "router", "update_rate"),
            [
                [policy, router, result.rates[policy][router]]
                for policy in result.rates
                for router in sorted(result.rates[policy])
            ],
        )
    ]
