"""Intradomain displacement study (§3.1 quantified).

The paper introduces displacement with an intradomain example (Fig. 2)
but evaluates only the interdomain case. This experiment quantifies the
intradomain version: on random shortest-path-routed networks, how does
the fraction of routers displaced per mobility event grow with the
amount of *hierarchical delegation* (foreign /24s carved out of other
routers' /16s) — the very structure that makes longest-prefix matching
useful also makes mobility expensive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..core import intradomain_displaced
from ..engine import Series, register
from ..stats import mean
from ..topology import random_intradomain_network
from .report import banner, render_table

__all__ = ["IntradomainResult", "run", "format_result", "series"]


@dataclass(frozen=True)
class SweepPoint:
    """One delegation level of the sweep."""

    specifics_per_router: int
    mean_displaced_fraction: float
    max_displaced_fraction: float


@dataclass
class IntradomainResult:
    """Displaced-router fractions per delegation level."""

    num_routers: int
    events_per_point: int
    points: List[SweepPoint]


@register(
    "intradomain",
    description="§3.1 intradomain displacement sweep",
    section="§3.1",
    needs_world=False,
    tags=("ablation", "name-based"),
)
def run(
    num_routers: int = 24,
    events: int = 400,
    delegation_levels: Tuple[int, ...] = (0, 1, 2, 4, 8),
    seed: int = 2014,
) -> IntradomainResult:
    """Sweep delegation density on random intradomain networks.

    Each mobility event is the Fig. 2 scenario: the endpoint moves
    *within one announced /16* (e.g. 22.33.44.55 -> 22.33.88.55). With
    no delegated specifics, the longest-matching entry is the same
    before and after and no router is displaced; every delegated /24
    carves a boundary the endpoint can cross.
    """
    points: List[SweepPoint] = []
    for level in delegation_levels:
        rng = random.Random((seed, level).__repr__())
        network = random_intradomain_network(
            num_routers=num_routers,
            specifics_per_router=(level, level),
            rng=rng,
        )
        routers = list(network.routers())
        sixteens = [p for p, _ in network.prefixes() if p.length == 16]
        fractions: List[float] = []
        for _ in range(events):
            block = rng.choice(sixteens)
            old = block.address_at(rng.randrange(1, block.num_addresses()))
            new = block.address_at(rng.randrange(1, block.num_addresses()))
            displaced = sum(
                1
                for router in routers
                if intradomain_displaced(network, router, old, new)
            )
            fractions.append(displaced / len(routers))
        points.append(
            SweepPoint(
                specifics_per_router=level,
                mean_displaced_fraction=mean(fractions),
                max_displaced_fraction=max(fractions),
            )
        )
    return IntradomainResult(
        num_routers=num_routers, events_per_point=events, points=points
    )


def format_result(result: IntradomainResult) -> str:
    """Render the delegation sweep."""
    rows = [
        [
            p.specifics_per_router,
            f"{p.mean_displaced_fraction * 100:.1f}%",
            f"{p.max_displaced_fraction * 100:.1f}%",
        ]
        for p in result.points
    ]
    table = render_table(
        ["delegated /24s per router", "mean displaced", "max displaced"],
        rows,
    )
    lines = [
        banner(
            f"Intradomain displacement (§3.1) on {result.num_routers}-router "
            "random networks"
        ),
        table,
        "More hierarchical delegation means endpoints cross "
        "longest-matching-prefix boundaries more often, displacing more "
        "routers per move — the intradomain seed of the Fig. 8 result.",
    ]
    return "\n".join(lines)


def series(result: IntradomainResult) -> List[Series]:
    """The delegation-sweep points."""
    return [
        Series(
            "intradomain",
            ("specifics_per_router", "mean_displaced_fraction",
             "max_displaced_fraction"),
            [
                [p.specifics_per_router, p.mean_displaced_fraction,
                 p.max_displaced_fraction]
                for p in result.points
            ],
        )
    ]
