"""Per-source, per-probe outage walks: batched convergence's reference.

:class:`~repro.forwarding.ConvergenceSimulator` floods arrival times as
a multi-source BFS and resolves every (probe instant, source) cell of
an event in one reachability fixpoint. These functions read arrival
times off BFS hop distances and walk each probe packet hop by hop
through the simulator's public ``deliver``/``deliver_under_faults``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, Iterable, Tuple

from repro.forwarding import ConvergenceSimulator
from repro.forwarding.convergence import DEFAULT_RETRANSMIT

__all__ = [
    "update_arrival_times",
    "expected_outage",
    "expected_outage_under_faults",
]

Node = Hashable


def update_arrival_times(
    graph, new_router: Node, per_hop_delay: float = 1.0
) -> Dict[Node, float]:
    """A router ``h`` hops from the new attachment learns at ``h * delay``."""
    return {
        node: hops * per_hop_delay
        for node, hops in graph.bfs_distances(new_router).items()
    }


def _outages(
    nodes, new_router: Node, convergence: float, probe_step: float,
    delivered: Callable[[Node, float], bool],
) -> Dict[Node, float]:
    """Per source: the last failed probe plus one step (0 if none fail)."""
    outage: Dict[Node, float] = {}
    for source in nodes:
        if source == new_router:
            outage[source] = 0.0
            continue
        last_failure = None
        t = 0.0
        while t <= convergence + probe_step:
            if not delivered(source, t):
                last_failure = t
            t += probe_step
        outage[source] = (
            0.0 if last_failure is None else last_failure + probe_step
        )
    return outage


def _mean_and_max(outages: Iterable[Dict[Node, float]]) -> Tuple[float, float]:
    """(mean of per-event mean outages, worst outage), as the simulator
    reduces them."""
    total = worst = 0.0
    count = 0
    for outage in outages:
        total += sum(outage.values()) / len(outage)
        worst = max(worst, max(outage.values()))
        count += 1
    return (total / count if count else 0.0, worst)


def expected_outage(
    graph, events: int, rng: random.Random, probe_step: float = 0.25
) -> Tuple[float, float]:
    """``ConvergenceSimulator.expected_outage``, one probe at a time."""
    sim = ConvergenceSimulator(graph)
    nodes = sorted(graph.nodes(), key=repr)
    outages = []
    for _ in range(events):
        old = rng.choice(nodes)
        new = rng.choice(nodes)
        if old == new:
            continue
        convergence = max(update_arrival_times(graph, new).values())
        outages.append(_outages(
            nodes, new, convergence, probe_step,
            lambda source, t: sim.deliver(source, t, old, new),
        ))
    return _mean_and_max(outages)


def expected_outage_under_faults(
    graph, events: int, rng: random.Random, loss, faults,
    probe_step: float = 0.25,
) -> Tuple[float, float]:
    """``expected_outage_under_faults`` for a lossy or faulty control
    plane, one probe at a time."""
    sim = ConvergenceSimulator(graph)
    nodes = sorted(graph.nodes(), key=repr)
    outages = []
    for index in range(events):
        old = rng.choice(nodes)
        new = rng.choice(nodes)
        if old == new:
            continue
        event_rng = random.Random(f"{rng.randint(0, 2**31)}:{index}")
        arrivals, _ = sim.lossy_update_arrival_times(
            new, loss, DEFAULT_RETRANSMIT, event_rng, faults
        )
        outages.append(_outages(
            nodes, new, max(arrivals.values()), probe_step,
            lambda source, t: sim.deliver_under_faults(
                source, t, old, new, arrivals, faults
            ),
        ))
    return _mean_and_max(outages)
