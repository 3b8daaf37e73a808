"""Fig. 9 — fraction of the day spent at the dominant location.

CDF across users and days of the time at the dominant IP address, IP
prefix, and AS. Headlines: over 40% of users spend ~70% of the day at
the dominant IP and ~85% at the dominant AS; users typically spend 30%
of a day away from the dominant IP (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..engine import Series, register
from ..mobility import cdf_points, dominant_residence_samples, percentile
from .context import World
from .asciichart import render_cdf_chart
from .report import banner, render_cdf_summary

__all__ = ["Fig9Result", "run", "format_result", "series"]


@dataclass
class Fig9Result:
    """Per-user-day dominant-residence fractions."""

    ip: List[float]
    prefix: List[float]
    asn: List[float]

    def fraction_above(self, series: str, threshold: float) -> float:
        values = getattr(self, series)
        return sum(1 for v in values if v > threshold) / len(values)

    def median_away_from_dominant_ip(self) -> float:
        return percentile([1 - v for v in self.ip], 0.5)

    def cdf(self, series: str) -> List[Tuple[float, float]]:
        return cdf_points(getattr(self, series))


@register(
    "fig9",
    description="Fig. 9: time at the dominant location",
    section="§6.3",
    needs_world=True,
    tags=("figure", "device-mobility"),
)
def run(world: World) -> Fig9Result:
    """Compute the Fig. 9 samples from the NomadLog workload."""
    ip, prefix, asn = dominant_residence_samples(world.workload.segments)
    return Fig9Result(ip=ip, prefix=prefix, asn=asn)


def format_result(result: Fig9Result) -> str:
    """Render the Fig. 9 summary with the paper's headline numbers."""
    lines = [banner("Fig. 9 -- time at the dominant location per day")]
    lines.append(render_cdf_summary("dominant IP    ", result.ip))
    lines.append(render_cdf_summary("dominant prefix", result.prefix))
    lines.append(render_cdf_summary("dominant AS    ", result.asn))
    lines.append(
        f"users >70% of day at dominant IP (paper: ~40%+): "
        f"{result.fraction_above('ip', 0.70) * 100:.1f}%"
    )
    lines.append(
        f"users >85% of day at dominant AS (paper: ~40%+): "
        f"{result.fraction_above('asn', 0.85) * 100:.1f}%"
    )
    lines.append(
        f"median time away from dominant IP (paper: ~30%): "
        f"{result.median_away_from_dominant_ip() * 100:.1f}%"
    )
    lines.append(
        render_cdf_chart(
            {"IP": result.ip, "prefix": result.prefix, "AS": result.asn},
            x_label="fraction of day at dominant location",
        )
    )
    return "\n".join(lines)


def series(result: Fig9Result) -> List[Series]:
    """The raw per-user-day samples behind the Fig. 9 CDFs."""
    return [
        Series(
            "fig9",
            ("dominant_ip_fraction", "dominant_prefix_fraction",
             "dominant_as_fraction"),
            list(zip(result.ip, result.prefix, result.asn)),
        )
    ]
