"""Ablation — multihomed device mobility (§3.3 applied to devices).

Re-runs the Fig. 8 update-cost question with the §3.3 multihomed model:
devices keep their cellular attachment alive while on WiFi (dual
radio), and routers track the device's *set* of addresses with either
best-port forwarding or controlled flooding. The device analogue of the
paper's content finding emerges: the stable cellular anchor makes the
best port far less volatile than single-attachment forwarding, at the
price of a larger eligible set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core import (
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    address_set_updates,
)
from ..engine import Series, register
from ..mobility.multihoming import build_multihomed_timeline
from ..workload import AddrsMatrix
from .context import World
from .report import banner, render_table

__all__ = ["MultihomingResult", "run", "format_result", "series"]


@dataclass
class MultihomingResult:
    """Update rates per router for each device-tracking mode."""

    #: router -> rate, single attachment (classic Fig. 8 displacement).
    single: Dict[str, float]
    #: router -> rate, multihomed set with best-port forwarding.
    multi_best_port: Dict[str, float]
    #: router -> rate, multihomed set with controlled flooding.
    multi_flooding: Dict[str, float]
    dual_radio_users: int
    total_users: int
    events_single: int
    events_multi: int


@register(
    "ablation-multihoming",
    description="§3.3 multihomed-device ablation",
    section="§3.3",
    needs_world=True,
    tags=("ablation", "device-mobility"),
)
def run(
    world: World, dual_radio_prob: float = 0.7, seed: int = 2014
) -> MultihomingResult:
    """Evaluate single- vs multi-attachment device tracking."""
    rng = random.Random(seed)
    segments = world.workload.segments
    users = world.workload.user_ids
    # Each user's rows, in table order.
    table = segments[np.argsort(segments["user"], kind="stable")]
    starts = np.flatnonzero(np.diff(table["user"], prepend=-1))
    by_user = {
        users[rows["user"][0]]: rows for rows in np.split(table, starts)[1:]
    }

    matrices: List[AddrsMatrix] = []
    dual_count = 0
    for user_id in sorted(by_user):
        dual = rng.random() < dual_radio_prob
        dual_count += int(dual)
        matrices.append(build_multihomed_timeline(
            user_id, by_user[user_id], dual_radio=dual
        ))

    # Single attachment baseline: classic Fig. 8 displacement.
    evaluator = DeviceUpdateCostEvaluator(world.routeviews, world.oracle)
    single = evaluator.evaluate(world.device_event_columns)
    # Multihomed sets: §3.3.1 strategies over the set timelines.
    multi = address_set_updates(world.routeviews, world.oracle, matrices)
    events_multi = sum(matrix.num_events for matrix in matrices)

    def rates(updates: Dict[str, int], events: int) -> Dict[str, float]:
        return {
            name: (count / events if events else 0.0)
            for name, count in updates.items()
        }

    return MultihomingResult(
        single=single.rates,
        multi_best_port=rates(
            multi[ForwardingStrategy.BEST_PORT], events_multi
        ),
        multi_flooding=rates(
            multi[ForwardingStrategy.CONTROLLED_FLOODING], events_multi
        ),
        dual_radio_users=dual_count,
        total_users=len(matrices),
        events_single=single.num_events,
        events_multi=events_multi,
    )


def format_result(result: MultihomingResult) -> str:
    """Render the three tracking modes side by side."""
    rows = [
        [
            router,
            f"{result.single[router] * 100:.2f}%",
            f"{result.multi_best_port[router] * 100:.2f}%",
            f"{result.multi_flooding[router] * 100:.2f}%",
        ]
        for router in result.single
    ]
    lines = [
        banner("Ablation -- multihomed device mobility (§3.3 on devices)"),
        f"{result.dual_radio_users}/{result.total_users} devices dual-radio; "
        f"{result.events_single} single-attachment events, "
        f"{result.events_multi} set-change events",
        render_table(
            ["router", "single attach", "multihomed best-port",
             "multihomed flooding"],
            rows,
        ),
        "Reading: with the cellular anchor in the set, the best port "
        "survives most WiFi flaps — the device-side version of the "
        "paper's 'content locations do not change arbitrarily' argument, "
        "and the mechanism multipath/addressing-assisted designs exploit.",
    ]
    return "\n".join(lines)

def series(result: MultihomingResult) -> list:
    """Per-router update rates for the three tracking modes."""
    return [
        Series(
            "ablation_multihoming",
            ("router", "single_attach", "multihomed_best_port",
             "multihomed_flooding"),
            [
                [router, result.single[router],
                 result.multi_best_port[router],
                 result.multi_flooding[router]]
                for router in result.single
            ],
        )
    ]
