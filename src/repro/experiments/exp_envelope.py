"""§6.2 / §7.3 back-of-the-envelope calculations.

Scales the measured per-event update probabilities to Internet size,
reproducing the paper's arithmetic — optionally substituting the update
probabilities measured by *this* reproduction for the paper's 3% / 0.5%
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core import (
    CONTENT_SCENARIO,
    DEVICE_SCENARIO_MEAN,
    DEVICE_SCENARIO_MEDIAN,
    EnvelopeScenario,
    extra_fib_fraction,
)
from ..engine import Series, register
from ..obs import PaperTarget, PerfBudget
from .report import banner, render_table

__all__ = ["EnvelopeResult", "run", "format_result", "series",
           "PAPER_TARGETS", "PERF_BUDGETS", "target_values"]

#: Pure arithmetic over the paper's constants — scale-independent, so
#: the bands are tight around the paper's own claims.
PAPER_TARGETS = (
    PaperTarget(
        key="devices_median_updates_per_s", paper=2100.0,
        lo=1900.0, hi=2300.0, section="§6.2",
        note="name-based updates/s, median user scenario",
    ),
    PaperTarget(
        key="content_updates_per_s", paper=100.0, lo=90.0, hi=140.0,
        section="§7.3",
        note="content updates/s at 1e9 names, 2 moves/day",
    ),
    PaperTarget(
        key="extra_fib_fraction", paper=0.01, lo=0.005, hi=0.02,
        section="§6.2",
        note="extra FIB entries per router as a fraction of devices",
    ),
)


#: Cost bands for ``repro check``: the envelope is pure arithmetic on a
#: handful of scenario constants — it must stay effectively free (about
#: 1 ms), so its wall band is the 1 s floor every band keeps.
PERF_BUDGETS = (
    PerfBudget(key="wall_s", hi=1.0,
               note="back-of-the-envelope arithmetic, scale-free"),
    PerfBudget(key="peak_rss_mb", hi=2048.0,
               note="a few scenario dataclasses need no memory"),
)


def target_values(result: "EnvelopeResult") -> dict:
    """Observed values for :data:`PAPER_TARGETS`."""
    by_label = {s.label: s for s in result.scenarios}
    return {
        "devices_median_updates_per_s":
            by_label["devices (median user)"].updates_per_second(),
        "content_updates_per_s":
            by_label["content names"].updates_per_second(),
        "extra_fib_fraction": result.extra_fib,
    }


@dataclass
class EnvelopeResult:
    """Computed rates for the paper's scenarios (plus measured ones)."""

    scenarios: List[EnvelopeScenario]
    extra_fib: float


@register(
    "envelope",
    description="§6.2/§7.3 back-of-the-envelope rates",
    section="§6.2",
    needs_world=False,
    tags=("analytic",),
)
def run(
    measured_device_probability: Optional[float] = None,
    measured_content_probability: Optional[float] = None,
    measured_time_away: float = 0.30,
) -> EnvelopeResult:
    """Evaluate the paper's scenarios and, optionally, measured ones."""
    scenarios = [DEVICE_SCENARIO_MEDIAN, DEVICE_SCENARIO_MEAN, CONTENT_SCENARIO]
    if measured_device_probability is not None:
        scenarios.append(
            EnvelopeScenario(
                label="devices (our measured probability)",
                num_principals=2e9,
                moves_per_day=3,
                update_probability=measured_device_probability,
                paper_claim_per_sec=2100.0,
            )
        )
    if measured_content_probability is not None:
        scenarios.append(
            EnvelopeScenario(
                label="content (our measured probability)",
                num_principals=1e9,
                moves_per_day=2,
                update_probability=measured_content_probability,
                paper_claim_per_sec=100.0,
            )
        )
    device_prob = (
        measured_device_probability
        if measured_device_probability is not None
        else 0.03
    )
    return EnvelopeResult(
        scenarios=scenarios,
        extra_fib=extra_fib_fraction(device_prob, measured_time_away),
    )


def format_result(result: EnvelopeResult) -> str:
    """Render the scenario table."""
    rows = [
        [
            s.label,
            f"{s.num_principals:.0e}",
            f"{s.moves_per_day:g}/day",
            f"{s.update_probability * 100:.2f}%",
            f"{s.updates_per_second():.0f}/s",
            f"{s.paper_claim_per_sec:.0f}/s",
        ]
        for s in result.scenarios
    ]
    table = render_table(
        ["scenario", "principals", "moves", "P(update)", "computed",
         "paper claim"],
        rows,
    )
    lines = [
        banner("Back-of-the-envelope update rates (§6.2, §7.3)"),
        table,
        f"extra FIB entries per router (paper: ~1%): "
        f"{result.extra_fib * 100:.2f}% of all devices",
    ]
    return "\n".join(lines)


def series(result: EnvelopeResult) -> list:
    """The scenario table plus the extra-FIB scalar."""
    return [
        Series(
            "envelope",
            ("scenario", "principals", "moves_per_day",
             "update_probability", "updates_per_second",
             "paper_claim_per_sec"),
            [
                [
                    s.label,
                    s.num_principals,
                    s.moves_per_day,
                    s.update_probability,
                    s.updates_per_second(),
                    s.paper_claim_per_sec,
                ]
                for s in result.scenarios
            ],
        ),
        Series(
            "envelope_extra_fib",
            ("extra_fib_fraction",),
            [[result.extra_fib]],
        ),
    ]
