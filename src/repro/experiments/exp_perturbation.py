"""§8 robustness — perturbing the extent of device mobility.

The paper's limitations section argues that "our findings are unlikely
to change qualitatively if the extent of device or content mobility
were perturbed by large factors". This experiment tests that claim
instead of asserting it: the device workload's activity level is scaled
by large factors and the Fig. 8 evaluation re-run; the qualitative
finding holds if the per-router update-rate *profile* (who is affected
and in what proportion) stays put even as event volumes swing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core import DeviceUpdateCostEvaluator, pearson_correlation
from ..engine import Series, register
from ..mobility import MobilityWorkloadConfig, generate_workload
from .context import World
from .report import banner, render_table

__all__ = ["PerturbationResult", "run", "format_result", "series",
           "TIMEOUT_S"]

#: Per-experiment deadline (overrides ``run --timeout-s``): this sweep
#: re-generates the mobility workload at every perturbation scale but
#: 1.0 and re-runs the Fig. 8 evaluation at each — the longest
#: multi-pass experiment — so it gets the suite's widest deadline before
#: the watchdog calls it hung.
TIMEOUT_S = 900


@dataclass
class PerturbationResult:
    """Fig. 8 outcomes at each mobility scale."""

    scales: Tuple[float, ...]
    #: scale -> router -> rate.
    rates: Dict[float, Dict[str, float]]
    #: scale -> total mobility events.
    events: Dict[float, int]
    #: Pearson correlation of the per-router profile vs scale 1.0.
    profile_correlation: Dict[float, float]


@register(
    "perturbation",
    description="§8 robustness: mobility scaled by large factors",
    section="§8",
    needs_world=True,
    tags=("robustness", "device-mobility"),
)
def run(
    world: World, scales: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
) -> PerturbationResult:
    """Re-run Fig. 8 with the workload's mobility scaled by ``scales``."""
    if 1.0 not in scales:
        raise ValueError("scales must include the calibrated 1.0 baseline")
    evaluator = DeviceUpdateCostEvaluator(world.routeviews, world.oracle)
    rates: Dict[float, Dict[str, float]] = {}
    events: Dict[float, int] = {}
    for scale in scales:
        if scale == 1.0:
            # The World's own workload: its config differs only in
            # leaving mobility_scale at the default 1.0.
            columns = world.device_event_columns
        else:
            columns = generate_workload(
                world.topology,
                MobilityWorkloadConfig(
                    num_users=world.scale.num_users,
                    num_days=world.scale.device_days,
                    seed=world.scale.seed,
                    mobility_scale=scale,
                ),
            ).as_columns()
        report = evaluator.evaluate(columns)
        rates[scale] = dict(report.rates)
        events[scale] = len(columns)

    routers = sorted(rates[1.0])
    baseline = [rates[1.0][r] for r in routers]
    correlation = {}
    for scale in scales:
        if scale == 1.0:
            correlation[scale] = 1.0
            continue
        correlation[scale] = pearson_correlation(
            baseline, [rates[scale][r] for r in routers]
        )
    return PerturbationResult(
        scales=tuple(scales),
        rates=rates,
        events=events,
        profile_correlation=correlation,
    )


def format_result(result: PerturbationResult) -> str:
    """Render per-scale rates and profile correlations."""
    routers = sorted(result.rates[1.0])
    rows = []
    for router in routers:
        rows.append(
            [router]
            + [f"{result.rates[s][router] * 100:.2f}%" for s in result.scales]
        )
    header = ["router"] + [f"x{s:g}" for s in result.scales]
    lines = [
        banner("§8 robustness -- device mobility perturbed by large factors"),
        render_table(header, rows),
        "events: " + "  ".join(
            f"x{s:g}: {result.events[s]}" for s in result.scales
        ),
        "per-router profile correlation vs x1: " + "  ".join(
            f"x{s:g}: {result.profile_correlation[s]:.3f}"
            for s in result.scales
        ),
        "The paper's claim holds when the profile correlations stay near "
        "1: event volume moves, the architecture comparison does not.",
    ]
    return "\n".join(lines)


def series(result: PerturbationResult) -> list:
    """Per-(scale, router) rates plus the per-scale summary."""
    return [
        Series(
            "perturbation",
            ("mobility_scale", "router", "update_rate"),
            [
                [scale, router, result.rates[scale][router]]
                for scale in result.scales
                for router in sorted(result.rates[scale])
            ],
        ),
        Series(
            "perturbation_summary",
            ("mobility_scale", "events", "profile_correlation"),
            [
                [scale, result.events[scale],
                 result.profile_correlation[scale]]
                for scale in result.scales
            ],
        ),
    ]
