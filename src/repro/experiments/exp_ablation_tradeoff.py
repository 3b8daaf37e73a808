"""Ablation — the full §3.3.3 cost triangle for all strategies.

Quantifies update cost, forwarding traffic (copies per packet), and
forwarding state for best-port, controlled flooding, and union flooding
on the popular-content workload — the fungibility the paper describes
but leaves unevaluated.
"""

from __future__ import annotations


from ..core import ForwardingStrategy
from ..core.tradeoff import TradeoffResult, evaluate_tradeoff
from ..engine import Series, register
from ..obs import PerfBudget
from ..stats import mean
from .context import World
from .report import banner, render_table

__all__ = ["run", "format_result", "series", "PERF_BUDGETS"]

#: Wall-time bands ``repro check`` enforces. The small band is about
#: three times ablation-tradeoff's slowest plain reading on a 2-vCPU
#: host, the slowest of five cold pooled runs (2.6 s; 2.0 s in a cold
#: run alone). Either way it is usually the first content experiment in
#: its process, so it builds the popular measurement and makes the
#: content pass itself. The paper band is tighter than that rule would
#: give: 16.4 s alone and 23.0 s in a cold pooled run at paper scale.
PERF_BUDGETS = (
    PerfBudget(key="wall_s", hi=8.0, scales=("small",),
               note="ablation-tradeoff small-scale wall"),
    PerfBudget(key="wall_s", hi=27.0, scales=("paper",),
               note="ablation-tradeoff paper-scale wall"),
)


@register(
    "ablation-tradeoff",
    description="§3.3.3 cost-triangle ablation",
    section="§3.3.3",
    needs_world=True,
    tags=("ablation", "content-mobility"),
)
def run(world: World) -> TradeoffResult:
    """Evaluate the cost triangle on the popular measurement."""
    return evaluate_tradeoff(
        world.content_evaluator, world.popular_measurement
    )


def format_result(result: TradeoffResult) -> str:
    """Render mean costs per strategy plus the extreme routers."""
    rows = []
    for strategy in ForwardingStrategy:
        costs = result.for_strategy(strategy)
        mean_update = mean([c.update_rate for c in costs])
        mean_copies = mean([c.avg_copies_per_packet for c in costs])
        mean_entries = mean([c.table_entries for c in costs])
        rows.append(
            [
                strategy.value,
                f"{mean_update * 100:.3f}%",
                f"{mean_copies:.2f}",
                f"{mean_entries / result.num_names:.2f}",
            ]
        )
    table = render_table(
        ["strategy", "mean update rate", "copies/packet", "entries/name"],
        rows,
    )
    lines = [
        banner("Ablation -- §3.3.3 cost triangle "
               "(update cost vs traffic vs state)"),
        table,
        f"({result.num_names} names, {result.num_events} events, "
        "averaged over the 12 RouteViews routers)",
        "Reading: best-port minimises traffic and state but updates on "
        "every best-port change; controlled flooding buys delivery "
        "robustness with multiple copies; union flooding nearly "
        "eliminates updates by keeping every port ever seen — paying in "
        "both copies and state.",
    ]
    return "\n".join(lines)


def series(result: TradeoffResult) -> list:
    """Tidy per-(strategy, router) cost triples."""
    return [
        Series(
            "ablation_tradeoff",
            ("strategy", "router", "update_rate", "copies_per_packet",
             "table_entries"),
            [
                [c.strategy.value, c.router, c.update_rate,
                 c.avg_copies_per_packet, c.table_entries]
                for c in result.costs
            ],
        )
    ]
