"""Fig. 6 — distinct network locations visited per user per day.

The paper's series: a CDF across 372 users of the average number of
distinct IP addresses, IP prefixes, and ASes visited per day. Headline
numbers: medians of 3 / 2 / 2 and more than 20% of users above 10 IP
addresses a day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..engine import Series, register
from ..mobility import cdf_points, percentile, user_averages
from ..obs import PaperTarget, PerfBudget
from .context import World
from .asciichart import render_cdf_chart
from .report import banner, render_cdf_summary

__all__ = ["Fig6Result", "run", "format_result", "series",
           "PAPER_TARGETS", "PERF_BUDGETS", "target_values"]

#: Per-user daily medians are ratios, stable across workload scales,
#: so one band covers both the paper and the small CI workload.
PAPER_TARGETS = (
    PaperTarget(
        key="median_ases", paper=2.0, lo=1.5, hi=3.0,
        section="§6.1 Fig. 6",
        note="median distinct ASes per user-day",
    ),
    PaperTarget(
        key="median_prefixes", paper=2.0, lo=1.5, hi=3.5,
        section="§6.1 Fig. 6",
        note="median distinct IP prefixes per user-day",
    ),
    PaperTarget(
        key="frac_above_10_ips", paper=0.20, lo=0.12, hi=0.40,
        section="§6.1 Fig. 6",
        note="fraction of users above 10 IP addresses/day (paper: >20%)",
    ),
)


#: Cost bands for ``repro check``: Fig. 6 is a single columnar pass
#: over the segment table plus CDF aggregation. Each wall band is
#: about three times its slowest plain reading on a 2-vCPU host, a cold
#: run of fig6 alone (0.11 s small, 0.49 s paper), and never below 1 s.
PERF_BUDGETS = (
    PerfBudget(key="wall_s", hi=1.0, scales=("small",),
               note="fig6 small-scale CDF pass"),
    PerfBudget(key="wall_s", hi=2.0, scales=("paper",),
               note="fig6 paper-scale CDF pass"),
    PerfBudget(key="peak_rss_mb", hi=4096.0,
               note="per-user aggregation must stream, not materialize"),
)


def target_values(result: "Fig6Result") -> dict:
    """Observed values for :data:`PAPER_TARGETS`."""
    return {
        "median_ases": result.median_ases(),
        "median_prefixes": result.median_prefixes(),
        "frac_above_10_ips": result.fraction_above_10_ips(),
    }


@dataclass
class Fig6Result:
    """Per-user averages of distinct daily locations."""

    ips: List[float]
    prefixes: List[float]
    ases: List[float]

    def median_ips(self) -> float:
        return percentile(self.ips, 0.5)

    def median_prefixes(self) -> float:
        return percentile(self.prefixes, 0.5)

    def median_ases(self) -> float:
        return percentile(self.ases, 0.5)

    def fraction_above_10_ips(self) -> float:
        return sum(1 for v in self.ips if v > 10) / len(self.ips)

    def cdf(self, series: str) -> List[Tuple[float, float]]:
        """CDF points for ``"ips"``, ``"prefixes"``, or ``"ases"``."""
        return cdf_points(getattr(self, series))


@register(
    "fig6",
    description="Fig. 6: distinct locations per user-day",
    section="§6.1",
    needs_world=True,
    tags=("figure", "device-mobility"),
)
def run(world: World) -> Fig6Result:
    """Compute the Fig. 6 series from the NomadLog workload."""
    workload = world.workload
    averages = user_averages(workload.segments, workload.user_ids)
    return Fig6Result(
        ips=[u.avg_distinct_ips for u in averages],
        prefixes=[u.avg_distinct_prefixes for u in averages],
        ases=[u.avg_distinct_ases for u in averages],
    )


def format_result(result: Fig6Result) -> str:
    """Render the Fig. 6 summary with the paper's headline numbers."""
    lines = [banner("Fig. 6 -- distinct network locations per user per day")]
    lines.append(render_cdf_summary("IP addresses", result.ips))
    lines.append(render_cdf_summary("IP prefixes ", result.prefixes))
    lines.append(render_cdf_summary("ASes        ", result.ases))
    lines.append(
        f"medians (paper: 3 / 2 / 2): "
        f"{result.median_ips():.2f} / {result.median_prefixes():.2f} / "
        f"{result.median_ases():.2f}"
    )
    lines.append(
        f"users above 10 IPs/day (paper: >20%): "
        f"{result.fraction_above_10_ips() * 100:.1f}%"
    )
    lines.append(
        render_cdf_chart(
            {"IPs": result.ips, "prefixes": result.prefixes,
             "ASes": result.ases},
            log_x=True,
            x_label="locations/day",
        )
    )
    return "\n".join(lines)


def series(result: Fig6Result) -> List[Series]:
    """The raw per-user series behind the Fig. 6 CDFs."""
    return [
        Series(
            "fig6",
            ("avg_distinct_ips", "avg_distinct_prefixes",
             "avg_distinct_ases"),
            list(zip(result.ips, result.prefixes, result.ases)),
        )
    ]
