"""The paper's core contribution: architecture models, the displacement
methodology, forwarding strategies, update-cost evaluation,
aggregateability, the §5 analytic model, and the back-of-the-envelope
calculators."""

from .aggregate import aggregateability, lpm_forwarding_table
from .analytic import (
    TOPOLOGY_KINDS,
    Table1Row,
    closed_form_row,
    exact_indirection_stretch,
    exact_name_based_update_cost,
    expected_pairwise_distance,
    paper_asymptotic_row,
    simulate_row,
)
from .architectures import (
    Architecture,
    ArchitectureMetrics,
    IndirectionRouting,
    NameBasedRouting,
    NameResolution,
)
from .displacement import (
    InterdomainPortMap,
    interdomain_displaced,
    intradomain_displaced,
)
from .envelope import (
    CONTENT_SCENARIO,
    DEVICE_SCENARIO_MEAN,
    DEVICE_SCENARIO_MEDIAN,
    EnvelopeScenario,
    extra_fib_fraction,
    router_updates_per_second,
)
from .evaluator import (
    ContentCosts,
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    FaultToleranceEvaluator,
    MobilityTimeline,
    UpdateRateReport,
    address_set_updates,
    pearson_correlation,
    per_day_update_rates,
)
from .compact import CompactRoutingScheme, CompactStats
from .hybrid import HybridEvaluation, MixedWorkloadMetrics, evaluate_hybrid
from .strategies import (
    ContentPortMapper,
    ForwardingStrategy,
    UnionFloodingState,
)
from .tradeoff import StrategyCosts, TradeoffResult, evaluate_tradeoff

__all__ = [
    "Architecture",
    "ArchitectureMetrics",
    "IndirectionRouting",
    "NameResolution",
    "NameBasedRouting",
    "intradomain_displaced",
    "InterdomainPortMap",
    "interdomain_displaced",
    "ForwardingStrategy",
    "ContentPortMapper",
    "UnionFloodingState",
    "UpdateRateReport",
    "DeviceUpdateCostEvaluator",
    "ContentCosts",
    "ContentUpdateCostEvaluator",
    "address_set_updates",
    "FaultToleranceEvaluator",
    "MobilityTimeline",
    "per_day_update_rates",
    "pearson_correlation",
    "lpm_forwarding_table",
    "aggregateability",
    "Table1Row",
    "TOPOLOGY_KINDS",
    "closed_form_row",
    "paper_asymptotic_row",
    "simulate_row",
    "exact_indirection_stretch",
    "exact_name_based_update_cost",
    "expected_pairwise_distance",
    "CompactRoutingScheme",
    "CompactStats",
    "HybridEvaluation",
    "MixedWorkloadMetrics",
    "evaluate_hybrid",
    "StrategyCosts",
    "TradeoffResult",
    "evaluate_tradeoff",
    "EnvelopeScenario",
    "router_updates_per_second",
    "extra_fib_fraction",
    "DEVICE_SCENARIO_MEDIAN",
    "DEVICE_SCENARIO_MEAN",
    "CONTENT_SCENARIO",
]
