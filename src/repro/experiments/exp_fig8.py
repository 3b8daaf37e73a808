"""Fig. 8 — fraction of device mobility events inducing a router update.

The name-based-routing cost of device mobility (§6.2.2): for each of
the 12 RouteViews routers, the fraction of all NomadLog mobility events
that change the router's best forwarding port. Headlines: up to ~14% at
the Oregon collectors, ~3% at the median router, "hardly any" updates
at Mauritius and Tokyo, and a low rate at Georgia explained by its low
next-hop degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core import DeviceUpdateCostEvaluator, UpdateRateReport
from ..engine import Series, register
from ..obs import PaperTarget, PerfBudget
from .context import World
from .asciichart import render_bar_chart
from .report import banner, render_table

__all__ = ["Fig8Result", "run", "format_result", "series",
           "PAPER_TARGETS", "PERF_BUDGETS", "TIMEOUT_S",
           "target_values"]

#: Per-experiment deadline (overrides ``run --timeout-s``): evaluating
#: every mobility event against all 12 routers is the suite's heaviest
#: single pass at paper scale, but 15 minutes means it hung, not worked.
TIMEOUT_S = 900

#: The synthetic workload reproduces the paper's *shape* (a handful of
#: high-degree collectors near ~max, a long low tail) with a hotter
#: median than the measured NomadLog feed, so the bands accept the
#: reproduction's operating range at either scale while still failing
#: if update attribution breaks (rates collapsing to 0 or exploding).
PAPER_TARGETS = (
    PaperTarget(
        key="median_update_rate", paper=0.0315, lo=0.03, hi=0.15,
        section="§6.2 Fig. 8",
        note="median per-router device update rate (paper: ~3.15%)",
    ),
    PaperTarget(
        key="max_update_rate", paper=0.14, lo=0.08, hi=0.30,
        section="§6.2 Fig. 8",
        note="max per-router device update rate (paper: ~14%)",
    ),
)


#: Cost bands ``repro check`` enforces like fidelity bands: about three
#: times fig8's slowest plain reading on a 2-vCPU host, and never below
#: 1 s. The vectorized device pass reads the World the driver builds
#: before forking, so it takes 0.08 s at small scale and 0.23 s at
#: paper scale, far under the 900 s deadline.
PERF_BUDGETS = (
    PerfBudget(key="wall_s", hi=1.0, scales=("small",),
               note="fig8 small-scale wall time"),
    PerfBudget(key="wall_s", hi=1.0, scales=("paper",),
               note="fig8 paper-scale wall time"),
    PerfBudget(key="peak_rss_mb", hi=4096.0,
               note="columnar event tables must stay memory-bounded"),
)


def target_values(result: "Fig8Result") -> Dict[str, float]:
    """Observed values for :data:`PAPER_TARGETS`."""
    return {
        "median_update_rate": result.report.median_rate(),
        "max_update_rate": result.report.max_rate(),
    }


@dataclass
class Fig8Result:
    """Per-router device-mobility update rates."""

    report: UpdateRateReport
    next_hop_degrees: Dict[str, int]

    def rate(self, router: str) -> float:
        return self.report.rates[router]


@register(
    "fig8",
    description="Fig. 8: device-mobility router update rates",
    section="§6.2",
    needs_world=True,
    tags=("figure", "device-mobility", "name-based"),
)
def run(world: World) -> Fig8Result:
    """Evaluate the device workload against the RouteViews FIBs."""
    evaluator = DeviceUpdateCostEvaluator(world.routeviews, world.oracle)
    report = evaluator.evaluate(world.device_event_columns)
    degrees = {r.name: r.next_hop_degree() for r in world.routeviews}
    return Fig8Result(report=report, next_hop_degrees=degrees)


def format_result(result: Fig8Result) -> str:
    """Render the Fig. 8 bar values."""
    rows = [
        [name, f"{rate * 100:.2f}%", result.next_hop_degrees[name]]
        for name, rate in result.report.rates.items()
    ]
    table = render_table(["router", "update rate", "next-hop degree"], rows)
    lines = [
        banner("Fig. 8 -- device mobility events inducing a router update"),
        table,
        f"events: {result.report.num_events}",
        f"max (paper: ~14%): {result.report.max_rate() * 100:.2f}%   "
        f"median (paper: ~3.15%): {result.report.median_rate() * 100:.2f}%",
        render_bar_chart(
            {name: rate * 100 for name, rate in result.report.rates.items()},
            unit="%",
        ),
    ]
    return "\n".join(lines)


def series(result: Fig8Result) -> list:
    """The per-router bars behind Fig. 8."""
    return [
        Series(
            "fig8",
            ("router", "update_rate", "next_hop_degree"),
            [
                [router, rate, result.next_hop_degrees[router]]
                for router, rate in result.report.rates.items()
            ],
        )
    ]
