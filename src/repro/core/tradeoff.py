"""The §3.3.3 cost triangle: updates vs. table size vs. traffic.

§3.3.3 observes that update cost, forwarding table size, and
forwarding-plane traffic are *fungible*: a strategy can buy lower
update cost by keeping more state and forwarding more copies. The
paper's model "implicitly focuses on control plane costs"; this module
completes the triangle so the ablation bench can quantify all three
corners for every strategy:

* **update cost** — fraction of mobility events changing router state
  (§3.3.1, as elsewhere);
* **forwarding traffic** — expected packet copies sent per forwarded
  packet: 1 for best-port, the size of the *current* eligible port set
  for controlled flooding, and the size of the *accumulated* port set
  for union flooding;
* **table size** — (name, port) state entries held by the router.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..measurement.vantage import ContentMeasurement
from .evaluator import ContentUpdateCostEvaluator
from .strategies import ForwardingStrategy

__all__ = ["StrategyCosts", "TradeoffResult", "evaluate_tradeoff"]


@dataclass(frozen=True)
class StrategyCosts:
    """The three §3.3.3 costs of one strategy at one router."""

    strategy: ForwardingStrategy
    router: str
    update_rate: float
    avg_copies_per_packet: float
    table_entries: int


@dataclass
class TradeoffResult:
    """All strategies x all routers."""

    costs: List[StrategyCosts]
    num_events: int
    num_names: int

    def for_strategy(self, strategy: ForwardingStrategy) -> List[StrategyCosts]:
        """The per-router costs of one strategy."""
        return [c for c in self.costs if c.strategy is strategy]

    def at(self, strategy: ForwardingStrategy, router: str) -> StrategyCosts:
        """The cost triple for one (strategy, router) pair."""
        for c in self.costs:
            if c.strategy is strategy and c.router == router:
                return c
        raise KeyError((strategy, router))


def evaluate_tradeoff(
    evaluator: ContentUpdateCostEvaluator,
    measurement: ContentMeasurement,
) -> TradeoffResult:
    """Quantify all three §3.3.3 costs for all three strategies.

    Reads the evaluator's one pass over ``measurement``
    (:meth:`ContentUpdateCostEvaluator.costs`), so it shares that pass
    with every other reader of the same measurement.
    """
    costs = evaluator.costs(measurement)
    reports = {s: costs.report(s) for s in ForwardingStrategy}
    return TradeoffResult(
        costs=[
            StrategyCosts(
                strategy=strategy,
                router=router,
                update_rate=reports[strategy].rates[router],
                avg_copies_per_packet=costs.copies_per_packet(
                    strategy, router
                ),
                table_entries=costs.table_entries(strategy, router),
            )
            for router in costs.routers
            for strategy in ForwardingStrategy
        ],
        num_events=costs.num_events,
        num_names=costs.num_names,
    )
