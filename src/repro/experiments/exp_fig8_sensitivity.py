"""§6.2.2 sensitivity analysis for the Fig. 8 result.

Three robustness checks from the paper:

1. **time** — repeating the experiment per day: "at every router, the
   standard deviation of the update rate is less than 0.005";
2. **router set** — 13 RIPE routers: median (max) update rate 2.74%
   (11.3%) versus 3.15% (14%) for RouteViews;
3. **workload** — a much larger second workload (the 7,137-user UMass
   IMAP trace): per-router update rates across all 25 routers correlate
   with the NomadLog rates at ~0.88.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..core import (
    DeviceUpdateCostEvaluator,
    UpdateRateReport,
    pearson_correlation,
    per_day_update_rates,
)
from ..engine import Series, register
from ..stats import mean
from .context import World
from .report import banner, render_table

__all__ = ["SensitivityResult", "run", "format_result", "series"]


@dataclass
class SensitivityResult:
    """All three §6.2.2 robustness checks."""

    per_day_std: Dict[str, float]
    routeviews: UpdateRateReport
    ripe: UpdateRateReport
    cross_workload_correlation: float


def _std(values: List[float]) -> float:
    center = mean(values)
    return math.sqrt(mean([(v - center) ** 2 for v in values]))


@register(
    "fig8-sensitivity",
    description="§6.2.2 sensitivity checks",
    section="§6.2.2",
    needs_world=True,
    tags=("robustness", "device-mobility"),
)
def run(world: World, alt_users: int = 900, alt_seed: int = 4096) -> SensitivityResult:
    """Run the three sensitivity checks.

    ``alt_users`` plays the role of the larger IMAP population (scaled
    down from 7,137 to keep runtime sane; correlation is across routers,
    not users, so the population size only affects noise).
    """
    rv_eval = DeviceUpdateCostEvaluator(world.routeviews, world.oracle)
    ripe_eval = DeviceUpdateCostEvaluator(world.ripe, world.oracle)
    events = world.device_event_columns

    # (1) per-day variation at the RouteViews routers.
    series = per_day_update_rates(rv_eval, events)
    per_day_std = {router: _std(rates) for router, rates in series.items()}

    # (2) the RIPE router set.
    rv_report = rv_eval.evaluate(events)
    ripe_report = ripe_eval.evaluate(events)

    # (3) a second, larger workload over all 25 routers.
    alt_events = world.alternate_workload(alt_users, alt_seed).as_columns()
    all_routers = world.routeviews + world.ripe
    both_eval = DeviceUpdateCostEvaluator(all_routers, world.oracle)
    ours = both_eval.evaluate(events)
    theirs = both_eval.evaluate(alt_events)
    names = sorted(ours.rates)
    corr = pearson_correlation(
        [ours.rates[n] for n in names], [theirs.rates[n] for n in names]
    )
    return SensitivityResult(
        per_day_std=per_day_std,
        routeviews=rv_report,
        ripe=ripe_report,
        cross_workload_correlation=corr,
    )


def format_result(result: SensitivityResult) -> str:
    """Render the three §6.2.2 checks."""
    rows = [
        [router, f"{std:.4f}"] for router, std in result.per_day_std.items()
    ]
    lines = [
        banner("Fig. 8 sensitivity (§6.2.2)"),
        "(1) per-day standard deviation of the update rate "
        "(paper: < 0.005 at every router):",
        render_table(["router", "std"], rows),
        "",
        "(2) router-set sensitivity (paper: RouteViews 3.15%/14%, "
        "RIPE 2.74%/11.3%):",
        f"    RouteViews median/max: "
        f"{result.routeviews.median_rate() * 100:.2f}% / "
        f"{result.routeviews.max_rate() * 100:.2f}%",
        f"    RIPE       median/max: "
        f"{result.ripe.median_rate() * 100:.2f}% / "
        f"{result.ripe.max_rate() * 100:.2f}%",
        "",
        f"(3) cross-workload correlation over 25 routers "
        f"(paper: 0.88): {result.cross_workload_correlation:.3f}",
    ]
    return "\n".join(lines)


def series(result: SensitivityResult) -> list:
    """Per-router robustness numbers plus the summary scalars."""
    return [
        Series(
            "fig8_sensitivity",
            ("router", "per_day_std"),
            [[router, std] for router, std in result.per_day_std.items()],
        ),
        Series(
            "fig8_sensitivity_summary",
            ("routeviews_median", "routeviews_max", "ripe_median",
             "ripe_max", "cross_workload_correlation"),
            [[
                result.routeviews.median_rate(),
                result.routeviews.max_rate(),
                result.ripe.median_rate(),
                result.ripe.max_rate(),
                result.cross_workload_correlation,
            ]],
        ),
    ]
