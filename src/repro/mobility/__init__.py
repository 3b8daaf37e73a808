"""Device network-mobility: record types, behavioural model, synthetic
NomadLog workload generation, and the Fig. 6/7/9 statistics."""

from .device import (
    AccessNetwork,
    UserClass,
    UserProfile,
    check_segments,
    segment_table,
    simulate_user_day,
    simulate_user_days,
)
from .events import (
    HOURS_PER_DAY,
    DaySegment,
    MobilityEvent,
    NetworkLocation,
    UserDay,
    events_as_columns,
)
from .stats import (
    DayStats,
    UserAverages,
    cdf_points,
    day_stats,
    dominant_residence_samples,
    percentile,
    user_averages,
)
from .multihoming import (
    MultihomedEvent,
    MultihomedTimeline,
    build_multihomed_timeline,
)
from .tracefile import read_trace, write_trace
from .synth import (
    CLASS_WEIGHTS,
    REGION_WEIGHTS,
    MobilityWorkload,
    MobilityWorkloadConfig,
    generate_workload,
)

__all__ = [
    "NetworkLocation",
    "DaySegment",
    "UserDay",
    "MobilityEvent",
    "events_as_columns",
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
    "user_averages",
    "dominant_residence_samples",
    "percentile",
    "cdf_points",
    "MultihomedEvent",
    "MultihomedTimeline",
    "build_multihomed_timeline",
    "read_trace",
    "write_trace",
]
