"""Fig. 12 — FIB aggregateability of popular content.

For each RouteViews router, the ratio of the complete best-port
forwarding table over the popular domain set to its LPM-reduced table
(§3.3.2). Paper: between 2x and 16x across routers — diversely-peered
routers aggregate the least, single-feed peripheral routers the most.
The unpopular set aggregates hardly at all (no subdomains).

The complete table holds each name's hour-0 best port, read from the
World's shared content pass (:class:`~repro.core.ContentCosts`); names
with no routed hour-0 address get no entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from ..core import aggregateability, lpm_forwarding_table
from ..engine import Series, register
from ..measurement import ContentMeasurement
from ..net import ContentName
from .context import World
from .report import banner, render_table

__all__ = ["Fig12Result", "run", "format_result", "series"]


@dataclass
class Fig12Result:
    """Per-router aggregateability (popular set) and table sizes."""

    popular: Dict[str, float]
    table_sizes: Dict[str, Tuple[int, int]]  # (complete, lpm)
    unpopular: Dict[str, float]

    def min_popular(self) -> float:
        return min(self.popular.values())

    def max_popular(self) -> float:
        return max(self.popular.values())


def _tables(
    world: World, measurement: ContentMeasurement
) -> Iterator[Tuple[str, Dict[ContentName, int], Dict[ContentName, int]]]:
    """Each router's complete and LPM tables over hour-0 best ports."""
    names = measurement.names()
    costs = world.content_evaluator.costs(measurement)
    for router, ports in costs.hour0_ports.items():
        complete = {
            name: port for name, port in zip(names, ports) if port >= 0
        }
        yield router, complete, lpm_forwarding_table(complete)


@register(
    "fig12",
    description="Fig. 12: FIB aggregateability",
    section="§7.3",
    needs_world=True,
    tags=("figure", "content-mobility"),
)
def run(world: World) -> Fig12Result:
    """Compute aggregateability at hour 0 for both content sets."""
    popular: Dict[str, float] = {}
    sizes: Dict[str, Tuple[int, int]] = {}
    unpopular: Dict[str, float] = {}
    for router, complete, lpm in _tables(world, world.popular_measurement):
        popular[router] = aggregateability(complete, lpm)
        sizes[router] = (len(complete), len(lpm))
    for router, complete, lpm in _tables(world, world.unpopular_measurement):
        unpopular[router] = aggregateability(complete, lpm)
    return Fig12Result(popular=popular, table_sizes=sizes, unpopular=unpopular)


def format_result(result: Fig12Result) -> str:
    """Render the Fig. 12 bars."""
    rows = []
    for router, ratio in result.popular.items():
        complete, lpm = result.table_sizes[router]
        rows.append(
            [router, f"{ratio:.2f}x", complete, lpm,
             f"{result.unpopular[router]:.2f}x"]
        )
    table = render_table(
        ["router", "aggregateability", "complete", "LPM", "unpopular"],
        rows,
    )
    lines = [
        banner("Fig. 12 -- FIB aggregateability of popular content"),
        table,
        f"range (paper: 2x .. 16x): {result.min_popular():.1f}x .. "
        f"{result.max_popular():.1f}x; unpopular content aggregates "
        "hardly at all (paper §7.3).",
    ]
    return "\n".join(lines)


def series(result: Fig12Result) -> list:
    """The per-router aggregateability bars behind Fig. 12."""
    return [
        Series(
            "fig12",
            ("router", "aggregateability", "complete_entries",
             "lpm_entries", "unpopular_aggregateability"),
            [
                [
                    router,
                    ratio,
                    result.table_sizes[router][0],
                    result.table_sizes[router][1],
                    result.unpopular[router],
                ]
                for router, ratio in result.popular.items()
            ],
        )
    ]
