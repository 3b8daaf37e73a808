"""Fig. 11 — content mobility and its router update cost.

Three panels:

* **(a)** CDF across the ~12K popular subdomains of mobility events per
  day (changes of the merged ``Addrs(d, t)`` set). Paper: median 2,
  bounded at 24 by the hourly measurement.
* **(b)** per-router update rate for popular content, with controlled
  flooding vs. best-port forwarding. Paper: flooding up to ~13%,
  best-port at most ~6%, flooding >= best-port at every router.
* **(c)** the same for unpopular content. Paper: at most ~1% even with
  flooding; best-port median 0.08%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core import ForwardingStrategy, UpdateRateReport
from ..engine import Series, register
from ..mobility import percentile
from ..obs import PaperTarget, PerfBudget
from .context import World
from .report import banner, render_cdf_summary, render_table

__all__ = ["Fig11Result", "run", "format_result", "series",
           "PAPER_TARGETS", "PERF_BUDGETS", "target_values"]

#: Wall-time bands ``repro check`` enforces. The small band is about
#: three times fig11's slowest plain reading on a 2-vCPU host, a cold
#: ``repro run fig11`` alone (2.5 s), which builds the popular
#: measurement and makes the content pass itself; in a pooled run a
#: sibling usually has (0.07 s). The paper band is tighter than that
#: rule would give: fig11 alone takes 15.7 s cold at paper scale.
PERF_BUDGETS = (
    PerfBudget(key="wall_s", hi=8.0, scales=("small",),
               note="fig11 small-scale wall"),
    PerfBudget(key="wall_s", hi=30.0, scales=("paper",),
               note="fig11 paper-scale wall"),
)

#: The paper's Fig. 11(a)/(b) headlines: popular content moves ~2x a
#: day and flooding always costs more than best-port, with flooding
#: capped around ~13% and best-port well under it.
PAPER_TARGETS = (
    PaperTarget(
        key="median_events_per_day", paper=2.0, lo=1.0, hi=3.5,
        section="§7.2 Fig. 11(a)",
        note="median popular-content mobility events/day",
    ),
    PaperTarget(
        key="popular_flooding_max", paper=0.13, lo=0.03, hi=0.16,
        section="§7.2 Fig. 11(b)",
        note="max flooding update rate over routers (paper: <=~13%)",
    ),
    PaperTarget(
        key="popular_best_port_max", paper=0.06, lo=0.01, hi=0.08,
        section="§7.2 Fig. 11(b)",
        note="max best-port update rate over routers (paper: <=~6%)",
    ),
)


def target_values(result: "Fig11Result") -> dict:
    """Observed values for :data:`PAPER_TARGETS`."""
    return {
        "median_events_per_day": result.median_events_per_day(),
        "popular_flooding_max": result.popular_flooding.max_rate(),
        "popular_best_port_max": result.popular_best_port.max_rate(),
    }


@dataclass
class Fig11Result:
    """All three Fig. 11 panels."""

    events_per_day: List[float]  # panel (a), per popular name
    popular_flooding: UpdateRateReport
    popular_best_port: UpdateRateReport
    unpopular_flooding: UpdateRateReport
    unpopular_best_port: UpdateRateReport

    def median_events_per_day(self) -> float:
        return percentile(self.events_per_day, 0.5)

    def max_events_per_day(self) -> float:
        return max(self.events_per_day)


@register(
    "fig11",
    description="Fig. 11: content mobility + update rates",
    section="§7",
    needs_world=True,
    tags=("figure", "content-mobility", "name-based"),
)
def run(world: World) -> Fig11Result:
    """Measure content mobility and evaluate both strategies."""
    popular = world.popular_measurement
    unpopular = world.unpopular_measurement
    evaluator = world.content_evaluator
    events_per_day = list(popular.daily_event_counts().values())
    return Fig11Result(
        events_per_day=events_per_day,
        popular_flooding=evaluator.evaluate(
            popular, ForwardingStrategy.CONTROLLED_FLOODING
        ),
        popular_best_port=evaluator.evaluate(
            popular, ForwardingStrategy.BEST_PORT
        ),
        unpopular_flooding=evaluator.evaluate(
            unpopular, ForwardingStrategy.CONTROLLED_FLOODING
        ),
        unpopular_best_port=evaluator.evaluate(
            unpopular, ForwardingStrategy.BEST_PORT
        ),
    )


def _rate_table(flooding: UpdateRateReport, best: UpdateRateReport) -> str:
    rows = [
        [router, f"{flooding.rates[router] * 100:.3f}%",
         f"{best.rates[router] * 100:.3f}%"]
        for router in flooding.rates
    ]
    return render_table(["router", "controlled flooding", "best-port"], rows)


def format_result(result: Fig11Result) -> str:
    """Render all three panels."""
    lines = [banner("Fig. 11(a) -- popular content mobility events per day")]
    lines.append(render_cdf_summary("events/day", result.events_per_day))
    lines.append(
        f"median (paper: 2): {result.median_events_per_day():.2f}   "
        f"max (paper: 24, hourly cap): {result.max_events_per_day():.1f}"
    )
    lines.append(
        banner("Fig. 11(b) -- popular content update rate "
               "(paper: flooding <= ~13%, best-port <= ~6%)")
    )
    lines.append(_rate_table(result.popular_flooding, result.popular_best_port))
    lines.append(
        f"events: {result.popular_flooding.num_events}  "
        f"flooding max {result.popular_flooding.max_rate() * 100:.2f}%  "
        f"best-port max {result.popular_best_port.max_rate() * 100:.2f}%"
    )
    lines.append(
        banner("Fig. 11(c) -- unpopular content update rate "
               "(paper: flooding <= ~1%, best-port median 0.08%)")
    )
    lines.append(
        _rate_table(result.unpopular_flooding, result.unpopular_best_port)
    )
    lines.append(
        f"events: {result.unpopular_flooding.num_events}  "
        f"flooding max {result.unpopular_flooding.max_rate() * 100:.2f}%  "
        f"best-port median {result.unpopular_best_port.median_rate() * 100:.3f}%"
    )
    return "\n".join(lines)


def series(result: Fig11Result) -> List[Series]:
    """Panel (a) events plus the (b)/(c) per-router rate bars."""
    return [
        Series(
            "fig11a",
            ("events_per_day",),
            [[v] for v in result.events_per_day],
        ),
        Series(
            "fig11bc",
            ("router", "popular_flooding", "popular_best_port",
             "unpopular_flooding", "unpopular_best_port"),
            [
                [
                    router,
                    result.popular_flooding.rates[router],
                    result.popular_best_port.rates[router],
                    result.unpopular_flooding.rates[router],
                    result.unpopular_best_port.rates[router],
                ]
                for router in result.popular_flooding.rates
            ],
        ),
    ]
