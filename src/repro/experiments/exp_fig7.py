"""Fig. 7 — transitions across network locations per user per day.

Headlines: the median user transitions across roughly one AS and three
IP addresses a day; average AS transitions span ~0.25 to ~31.6 across
users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..engine import Series, register
from ..mobility import cdf_points, percentile, user_averages
from .context import World
from .asciichart import render_cdf_chart
from .report import banner, render_cdf_summary

__all__ = ["Fig7Result", "run", "format_result", "series"]


@dataclass
class Fig7Result:
    """Per-user averages of daily transitions."""

    ip_transitions: List[float]
    prefix_transitions: List[float]
    as_transitions: List[float]

    def median_ip_transitions(self) -> float:
        return percentile(self.ip_transitions, 0.5)

    def median_as_transitions(self) -> float:
        return percentile(self.as_transitions, 0.5)

    def as_transition_range(self) -> Tuple[float, float]:
        return (min(self.as_transitions), max(self.as_transitions))

    def cdf(self, series: str) -> List[Tuple[float, float]]:
        """CDF points for one of the three series."""
        return cdf_points(getattr(self, series))


@register(
    "fig7",
    description="Fig. 7: transitions per user-day",
    section="§6.1",
    needs_world=True,
    tags=("figure", "device-mobility"),
)
def run(world: World) -> Fig7Result:
    """Compute the Fig. 7 series from the NomadLog workload."""
    workload = world.workload
    averages = user_averages(workload.segments, workload.user_ids)
    return Fig7Result(
        ip_transitions=[u.avg_ip_transitions for u in averages],
        prefix_transitions=[u.avg_prefix_transitions for u in averages],
        as_transitions=[u.avg_as_transitions for u in averages],
    )


def format_result(result: Fig7Result) -> str:
    """Render the Fig. 7 summary with the paper's headline numbers."""
    lo, hi = result.as_transition_range()
    lines = [banner("Fig. 7 -- transitions across network locations per day")]
    lines.append(render_cdf_summary("IP transitions", result.ip_transitions))
    lines.append(render_cdf_summary("prefix trans. ", result.prefix_transitions))
    lines.append(render_cdf_summary("AS transitions", result.as_transitions))
    lines.append(
        f"median IP / AS transitions (paper: ~3 / ~1): "
        f"{result.median_ip_transitions():.2f} / "
        f"{result.median_as_transitions():.2f}"
    )
    lines.append(
        f"avg AS transitions range (paper: 0.25 .. 31.6): "
        f"{lo:.2f} .. {hi:.1f}"
    )
    lines.append(
        render_cdf_chart(
            {"IP": result.ip_transitions, "prefix": result.prefix_transitions,
             "AS": result.as_transitions},
            log_x=True,
            x_label="transitions/day",
        )
    )
    return "\n".join(lines)


def series(result: Fig7Result) -> List[Series]:
    """The raw per-user series behind the Fig. 7 CDFs."""
    return [
        Series(
            "fig7",
            ("ip_transitions", "prefix_transitions", "as_transitions"),
            list(zip(result.ip_transitions, result.prefix_transitions,
                     result.as_transitions)),
        )
    ]
