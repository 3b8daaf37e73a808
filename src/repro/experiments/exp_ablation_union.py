"""Ablation — the §3.3.3 union-of-past-addresses strategy.

The paper sketches (but does not evaluate) a strategy that computes a
router's eligible ports over the union of *all* addresses ever observed
for a destination: update cost collapses for content that flits among
previously-visited locations, in exchange for larger port sets
(forwarding traffic / table size). This ablation quantifies that
trade-off against the two evaluated strategies on the popular content
workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core import ForwardingStrategy, UpdateRateReport
from ..engine import Series, register
from ..obs import PerfBudget
from .context import World
from .report import banner, render_table

__all__ = ["UnionAblationResult", "run", "format_result", "series",
           "PERF_BUDGETS"]

#: Wall-time bands ``repro check`` enforces. The small band is about
#: three times ablation-union's slowest plain reading on a 2-vCPU host,
#: a cold ``repro run ablation-union`` alone (2.8 s; 2.4 s in the
#: slowest of five cold pooled runs). Either way it is usually the first
#: content experiment in its process, so it builds the popular
#: measurement and makes the content pass itself. The paper band is
#: tighter than that rule would give: 15.6 s alone and 17.9 s in a cold
#: pooled run at paper scale.
PERF_BUDGETS = (
    PerfBudget(key="wall_s", hi=9.0, scales=("small",),
               note="ablation-union small-scale wall"),
    PerfBudget(key="wall_s", hi=27.0, scales=("paper",),
               note="ablation-union paper-scale wall"),
)


@dataclass
class UnionAblationResult:
    """Update rates for all three strategies plus union state sizes."""

    best_port: UpdateRateReport
    flooding: UpdateRateReport
    union: UpdateRateReport
    union_table_sizes: Dict[str, int]
    names_measured: int


@register(
    "ablation-union",
    description="§3.3.3 union-strategy ablation",
    section="§3.3.3",
    needs_world=True,
    tags=("ablation", "content-mobility"),
)
def run(world: World) -> UnionAblationResult:
    """Evaluate all three strategies on the popular measurement."""
    measurement = world.popular_measurement
    evaluator = world.content_evaluator
    return UnionAblationResult(
        best_port=evaluator.evaluate(measurement, ForwardingStrategy.BEST_PORT),
        flooding=evaluator.evaluate(
            measurement, ForwardingStrategy.CONTROLLED_FLOODING
        ),
        union=evaluator.evaluate(
            measurement, ForwardingStrategy.UNION_FLOODING
        ),
        union_table_sizes=evaluator.union_table_sizes(measurement),
        names_measured=len(measurement.names()),
    )


def format_result(result: UnionAblationResult) -> str:
    """Render the strategy comparison."""
    rows = []
    for router in result.flooding.rates:
        rows.append(
            [
                router,
                f"{result.best_port.rates[router] * 100:.3f}%",
                f"{result.flooding.rates[router] * 100:.3f}%",
                f"{result.union.rates[router] * 100:.3f}%",
                f"{result.union_table_sizes[router] / result.names_measured:.2f}",
            ]
        )
    table = render_table(
        ["router", "best-port", "flooding", "union-flooding",
         "union ports/name"],
        rows,
    )
    lines = [
        banner("Ablation -- §3.3.3 union-of-past-addresses strategy"),
        table,
        "union flooding trades update cost (lower than controlled "
        "flooding) for forwarding state (ports per name > 1) and "
        "forwarding traffic, exactly the fungibility §3.3.3 describes.",
    ]
    return "\n".join(lines)


def series(result: UnionAblationResult) -> list:
    """Per-router rates for all three strategies plus union state."""
    return [
        Series(
            "ablation_union",
            ("router", "best_port_rate", "flooding_rate", "union_rate",
             "union_ports_per_name"),
            [
                [
                    router,
                    result.best_port.rates[router],
                    result.flooding.rates[router],
                    result.union.rates[router],
                    result.union_table_sizes[router] / result.names_measured,
                ]
                for router in result.flooding.rates
            ],
        )
    ]
