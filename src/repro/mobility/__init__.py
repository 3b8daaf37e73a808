"""Device network-mobility: record types, behavioural model, synthetic
NomadLog workload generation, and the Fig. 6/7/9 statistics over its
segment table."""

from .device import (
    AccessNetwork,
    UserClass,
    UserProfile,
    check_segments,
    segment_table,
    simulate_user_day,
    simulate_user_days,
)
from .events import HOURS_PER_DAY, MobilityEvent, NetworkLocation
from .stats import (
    DayStats,
    Residence,
    UserAverages,
    cdf_points,
    day_stats,
    dominant_residence_samples,
    percentile,
    residence,
    user_averages,
    user_day_runs,
)
from .multihoming import build_multihomed_timeline
from .synth import (
    CLASS_WEIGHTS,
    REGION_WEIGHTS,
    MobilityWorkload,
    MobilityWorkloadConfig,
    generate_workload,
)

__all__ = [
    "NetworkLocation",
    "MobilityEvent",
    "HOURS_PER_DAY",
    "AccessNetwork",
    "UserClass",
    "UserProfile",
    "simulate_user_day",
    "simulate_user_days",
    "segment_table",
    "check_segments",
    "MobilityWorkload",
    "MobilityWorkloadConfig",
    "generate_workload",
    "REGION_WEIGHTS",
    "CLASS_WEIGHTS",
    "DayStats",
    "UserAverages",
    "day_stats",
    "Residence",
    "residence",
    "user_day_runs",
    "user_averages",
    "dominant_residence_samples",
    "percentile",
    "cdf_points",
    "build_multihomed_timeline",
]
