"""Fig. 10 — network distance from the dominant ("home") location.

The indirection-routing stretch proxy of §6.3.2: for every (dominant
AS, visited AS) pair in the trace, the iPlane-predicted one-way delay
and AS hop count — answered for only ~5% of pairs because of iPlane's
coverage — plus the topology-based lower bound on the AS hop count.
Headlines: median predicted delay ~50 ms; median shortest physical AS
path 2, "suggesting that mobile users typically wander two or more
ASes away from the home AS".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..engine import Series, register
from ..mobility import percentile, residence
from .context import World
from .report import banner, render_cdf_summary

__all__ = ["Fig10Result", "home_visits", "run", "format_result", "series"]


@dataclass
class Fig10Result:
    """Predicted delays, predicted hops, and physical lower bounds."""

    total_pairs: int
    answered_pairs: int
    delays_ms: List[float]
    predicted_hops: List[int]
    physical_hops: List[int]

    def answer_rate(self) -> float:
        return self.answered_pairs / self.total_pairs if self.total_pairs else 0.0

    def median_delay(self) -> float:
        return percentile(self.delays_ms, 0.5)

    def median_predicted_hops(self) -> float:
        return percentile(self.predicted_hops, 0.5)

    def median_physical_hops(self) -> float:
        return percentile(self.physical_hops, 0.5)


def home_visits(segments: "np.ndarray") -> List[Tuple[int, int]]:
    """Every (home AS, visited AS) pair of a segment table.

    A user-day's home is the AS where it spends the most hours, a tie
    going to the lowest ASN; its other ASes follow in first-seen order,
    and the user-days in table order.
    """
    stays = residence(segments, segments["asn"])
    homes = stays.key[stays.dominant(stays.key)]
    visits = np.argsort(stays.first)
    return [
        (home, asn)
        for home, asn in zip(homes[stays.day[visits]].tolist(),
                             stays.key[visits].tolist())
        if asn != home
    ]


@register(
    "fig10",
    description="Fig. 10: displacement from home",
    section="§6.3.2",
    needs_world=True,
    tags=("figure", "device-mobility", "indirection"),
)
def run(world: World) -> Fig10Result:
    """Predict home-to-current distances for every user-day pair."""
    predictor = world.iplane
    delays: List[float] = []
    predicted_hops: List[int] = []
    physical: List[int] = []
    total = answered = 0
    # Home AS -> physical-graph hop distances from it: one BFS a home.
    hops_from = {}
    for home, asn in home_visits(world.workload.segments):
        total += 1
        prediction = predictor.predict_as(home, asn)
        if prediction is not None:
            answered += 1
            delays.append(prediction.latency_ms)
            predicted_hops.append(prediction.as_hops)
        if home not in hops_from:
            hops_from[home] = world.topology.shortest_as_hops(home)
        hops = hops_from[home].get(asn)
        if hops is not None:
            physical.append(hops)
    return Fig10Result(
        total_pairs=total,
        answered_pairs=answered,
        delays_ms=delays,
        predicted_hops=predicted_hops,
        physical_hops=physical,
    )


def format_result(result: Fig10Result) -> str:
    """Render the Fig. 10 summary."""
    lines = [banner("Fig. 10 -- displacement from the dominant location")]
    lines.append(
        f"iPlane answer rate (paper: ~5%): {result.answer_rate() * 100:.1f}% "
        f"({result.answered_pairs}/{result.total_pairs} pairs)"
    )
    lines.append(render_cdf_summary("one-way delay (ms)", result.delays_ms))
    lines.append(
        f"median delay (paper: ~50 ms): {result.median_delay():.1f} ms"
    )
    lines.append(
        f"median predicted AS hops (paper: 4): "
        f"{result.median_predicted_hops():.1f}"
    )
    lines.append(
        f"median shortest physical AS path (paper: 2): "
        f"{result.median_physical_hops():.1f}"
    )
    return "\n".join(lines)


def series(result: Fig10Result) -> List[Series]:
    """The delay/hop samples behind Fig. 10 (two files, as measured)."""
    return [
        Series(
            "fig10_delays",
            ("delay_ms", "predicted_as_hops"),
            list(zip(result.delays_ms, result.predicted_hops)),
        ),
        Series(
            "fig10_physical_hops",
            ("physical_as_hops",),
            [[h] for h in result.physical_hops],
        ),
    ]
