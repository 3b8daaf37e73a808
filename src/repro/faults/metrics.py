"""Graceful-degradation metrics.

Every fault experiment reduces to the same shape: probe an
architecture's data path on a fixed cadence while faults play out, then
summarize the probe record. :class:`AvailabilityTrace` is that record;
:class:`DegradationReport` is the summary the §8-gap experiments table:
availability, outage-duration distribution, stale-delivery fraction,
and recovery time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..stats import cdf_points, mean, percentile

__all__ = ["ProbeSample", "AvailabilityTrace", "DegradationReport"]


@dataclass(frozen=True)
class ProbeSample:
    """One data-path probe.

    ``delivered`` — did the packet/connection reach the endpoint's
    true current location. ``stale`` — the attempt used an outdated
    binding (delivered or not, it consumed a stale answer; for
    resolution this is the degraded-mode path). ``latency`` — the
    probe's control-plane cost (lookup RTT + retry timeouts), in the
    caller's time unit.
    """

    time: float
    delivered: bool
    stale: bool = False
    latency: float = 0.0


class AvailabilityTrace:
    """A time-ordered probe record with outage-interval extraction."""

    def __init__(self, probe_step: float):
        if probe_step <= 0:
            raise ValueError("probe_step must be positive")
        self.probe_step = probe_step
        self._samples: List[ProbeSample] = []

    def record(
        self,
        time: float,
        delivered: bool,
        stale: bool = False,
        latency: float = 0.0,
    ) -> None:
        """Append one probe; times must be non-decreasing."""
        if self._samples and time < self._samples[-1].time:
            raise ValueError("probes must be recorded in time order")
        self._samples.append(ProbeSample(time, delivered, stale, latency))

    @property
    def samples(self) -> Tuple[ProbeSample, ...]:
        return tuple(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    # -- reductions ----------------------------------------------------

    def availability(self) -> float:
        """Fraction of probes delivered (1.0 for an empty trace)."""
        if not self._samples:
            return 1.0
        return sum(1 for s in self._samples if s.delivered) / len(self._samples)

    def stale_fraction(self) -> float:
        """Fraction of probes that consumed a stale binding."""
        if not self._samples:
            return 0.0
        return sum(1 for s in self._samples if s.stale) / len(self._samples)

    def mean_latency(self) -> float:
        """Mean probe latency (0.0 for an empty trace)."""
        if not self._samples:
            return 0.0
        return mean([s.latency for s in self._samples])

    def outage_intervals(self) -> List[Tuple[float, float]]:
        """Maximal runs of failed probes as ``[first, last + step)``."""
        intervals: List[Tuple[float, float]] = []
        start: Optional[float] = None
        last: Optional[float] = None
        for s in self._samples:
            if not s.delivered:
                if start is None:
                    start = s.time
                last = s.time
            elif start is not None:
                intervals.append((start, last + self.probe_step))
                start = None
        if start is not None:
            intervals.append((start, last + self.probe_step))
        return intervals

    def outage_durations(self) -> List[float]:
        """Length of each contiguous outage."""
        return [end - start for start, end in self.outage_intervals()]

    def recovery_time_after(self, fault_time: float) -> Optional[float]:
        """How long after ``fault_time`` until delivery next succeeds.

        None when no probe at/after ``fault_time`` ever succeeds.
        """
        for s in self._samples:
            if s.time >= fault_time and s.delivered:
                return s.time - fault_time
        return None


@dataclass(frozen=True)
class DegradationReport:
    """Summary of one architecture's behaviour under one fault schedule."""

    architecture: str
    probes: int
    availability: float
    stale_fraction: float
    mean_latency: float
    outage_durations: Tuple[float, ...] = field(default_factory=tuple)

    @classmethod
    def from_trace(
        cls, architecture: str, trace: AvailabilityTrace
    ) -> "DegradationReport":
        return cls(
            architecture=architecture,
            probes=len(trace),
            availability=trace.availability(),
            stale_fraction=trace.stale_fraction(),
            mean_latency=trace.mean_latency(),
            outage_durations=tuple(trace.outage_durations()),
        )

    def mean_outage(self) -> float:
        """Mean contiguous-outage duration (0.0 if never down)."""
        return mean(list(self.outage_durations)) if self.outage_durations else 0.0

    def max_outage(self) -> float:
        """Worst contiguous outage (0.0 if never down)."""
        return max(self.outage_durations, default=0.0)

    def outage_percentile(self, q: float) -> float:
        """The ``q``-quantile of the outage-duration distribution."""
        if not self.outage_durations:
            return 0.0
        return percentile(list(self.outage_durations), q)

    def outage_cdf(self) -> List[Tuple[float, float]]:
        """Empirical CDF of outage durations."""
        return cdf_points(list(self.outage_durations))
