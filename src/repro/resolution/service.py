"""A name-resolution service substrate (DNS / GNS style).

The paper treats name resolution as an extra-network service whose
update cost is O(1) per mobility event and whose only data-path price
is "a lookup latency at connection setup time" (§2). This module makes
that service concrete enough to quantify the two costs the paper
glosses over, which its §8 augmentation argument ultimately depends on:

* **lookup latency** — resolving against the nearest of a set of
  geo-replicated resolver sites (MobilityFirst's GNS model [49] rather
  than DNS's hierarchy, but the latency accounting is the same);
* **staleness** — client-side caching with a TTL means a binding can
  be stale for up to TTL after a mobility event; a connection initiated
  against a stale binding fails and must re-resolve.

Time is a plain float of seconds; the service is deterministic given
its inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import REPLICA, FaultSchedule, RetryPolicy
from ..mobility import NetworkLocation

__all__ = [
    "NameRecord",
    "ResolutionResult",
    "NameResolutionService",
    "ClientResolverCache",
    "ResolveOutcome",
    "RetryingResolver",
]


@dataclass
class NameRecord:
    """The service's authoritative state for one name."""

    name: str
    locations: Tuple[NetworkLocation, ...]
    version: int
    updated_at: float


@dataclass(frozen=True)
class ResolutionResult:
    """One resolution: the binding handed out plus its cost."""

    locations: Tuple[NetworkLocation, ...]
    latency_ms: float
    from_cache: bool
    version: int


class NameResolutionService:
    """A logically centralized, geo-replicated resolution service.

    ``replica_latency_ms`` is the one-way latency from each replica
    site to a client region (the client always queries the nearest
    replica, so lookup latency is the minimum). ``propagation_ms`` is
    how long an update takes to reach all replicas; reads within that
    window may return the previous version — the same anomaly a real
    eventually-consistent GNS exhibits.
    """

    def __init__(
        self,
        replica_latency_ms: Dict[str, Dict[str, float]],
        propagation_ms: float = 50.0,
        fault_schedule: Optional[FaultSchedule] = None,
    ):
        if not replica_latency_ms:
            raise ValueError("need at least one replica site")
        self._replica_latency = replica_latency_ms
        self._propagation_ms = propagation_ms
        # None and the empty schedule both mean the failure-free
        # service; every query then takes the pristine code path.
        self._faults = (
            fault_schedule
            if fault_schedule is not None and not fault_schedule.empty
            else None
        )
        self._records: Dict[str, NameRecord] = {}
        self._history: Dict[str, List[NameRecord]] = {}
        self.update_count = 0
        self.lookup_count = 0

    # -- authoritative updates -----------------------------------------

    def update(
        self, name: str, locations: Sequence[NetworkLocation], now: float
    ) -> NameRecord:
        """Install a new binding; cost is one update, as in §2."""
        if not locations:
            raise ValueError("a binding needs at least one location")
        previous = self._records.get(name)
        record = NameRecord(
            name=name,
            locations=tuple(locations),
            version=(previous.version + 1) if previous else 1,
            updated_at=now,
        )
        self._records[name] = record
        self._history.setdefault(name, []).append(record)
        self.update_count += 1
        return record

    def authoritative(self, name: str) -> Optional[NameRecord]:
        """The latest committed record (None if never registered)."""
        return self._records.get(name)

    # -- lookups ----------------------------------------------------------

    def nearest_replica_latency(self, client_region: str) -> float:
        """One-way latency from ``client_region`` to its best replica."""
        latencies = [
            sites.get(client_region)
            for sites in self._replica_latency.values()
        ]
        usable = [l for l in latencies if l is not None]
        if not usable:
            raise KeyError(f"no replica serves region {client_region!r}")
        return min(usable)

    # -- replica availability (repro.faults) ---------------------------

    def replica_up(self, site: str, now: float) -> bool:
        """Is ``site`` serving at ``now`` under the fault schedule?"""
        if site not in self._replica_latency:
            raise KeyError(f"unknown replica site {site!r}")
        if self._faults is None:
            return True
        return not self._faults.is_down(REPLICA, site, now)

    def region_latencies(self, client_region: str) -> List[Tuple[float, str]]:
        """All replicas serving ``client_region``, nearest first."""
        ranked = sorted(
            (latency, site)
            for site, sites in self._replica_latency.items()
            if (latency := sites.get(client_region)) is not None
        )
        if not ranked:
            raise KeyError(f"no replica serves region {client_region!r}")
        return ranked

    def reachable_replicas(
        self, client_region: str, now: float
    ) -> List[Tuple[float, str]]:
        """Up replicas serving ``client_region``, nearest first."""
        return [
            (latency, site)
            for latency, site in self.region_latencies(client_region)
            if self.replica_up(site, now)
        ]

    def resolve(
        self, name: str, client_region: str, now: float
    ) -> Optional[ResolutionResult]:
        """Query the nearest replica (a full round trip).

        Returns the record visible at ``now`` — the newest version old
        enough to have propagated, or the previous one inside the
        propagation window. Under a fault schedule the query goes to
        the nearest **up** replica; None is also returned when no
        replica serving the region is reachable (callers needing to
        distinguish that from an unregistered name use
        :class:`RetryingResolver`, which accounts it explicitly).
        """
        self.lookup_count += 1
        visible = self._visible(name, now)
        if visible is None:
            return None
        if self._faults is None:
            rtt = 2.0 * self.nearest_replica_latency(client_region)
        else:
            reachable = self.reachable_replicas(client_region, now)
            if not reachable:
                return None
            rtt = 2.0 * reachable[0][0]
        return ResolutionResult(
            locations=visible.locations,
            latency_ms=rtt,
            from_cache=False,
            version=visible.version,
        )

    def _visible(self, name: str, now: float) -> Optional[NameRecord]:
        """The record replicas serve at ``now`` (propagation-aware)."""
        history = self._history.get(name)
        if not history:
            return None
        visible = None
        for record in history:
            if record.updated_at + self._propagation_ms / 1000.0 <= now:
                visible = record
        if visible is None:
            # Nothing has propagated yet: replicas still serve the
            # oldest version if one exists prior to the window.
            visible = history[0]
        return visible


class ClientResolverCache:
    """A client-side cache with TTL — where staleness comes from."""

    def __init__(self, service: NameResolutionService, ttl_s: float,
                 client_region: str):
        if ttl_s < 0:
            raise ValueError("TTL must be non-negative")
        self._service = service
        self._ttl = ttl_s
        self._region = client_region
        self._cache: Dict[str, Tuple[float, ResolutionResult]] = {}
        self.hits = 0
        self.misses = 0

    def resolve(self, name: str, now: float) -> Optional[ResolutionResult]:
        """Resolve through the cache; hits are free and instantaneous."""
        cached = self._cache.get(name)
        if cached is not None and now - cached[0] < self._ttl:
            self.hits += 1
            result = cached[1]
            return ResolutionResult(
                locations=result.locations,
                latency_ms=0.0,
                from_cache=True,
                version=result.version,
            )
        self.misses += 1
        fresh = self._service.resolve(name, self._region, now)
        if fresh is not None and self._ttl > 0:
            self._cache[name] = (now, fresh)
        return fresh

    def is_stale(self, name: str, now: float) -> bool:
        """Would a cache hit right now hand out an outdated binding?"""
        cached = self._cache.get(name)
        if cached is None or now - cached[0] >= self._ttl:
            return False  # no hit would occur, so no stale answer
        authoritative = self._service.authoritative(name)
        if authoritative is None:
            return False
        return cached[1].version != authoritative.version

    def hit_rate(self) -> float:
        """Fraction of resolutions served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class ResolveOutcome:
    """One client resolution attempt with its full fault accounting."""

    result: Optional[ResolutionResult]
    attempts: int
    timeouts: int
    failovers: int
    #: Wall-clock cost: retry timeouts plus the successful lookup RTT.
    total_latency_ms: float
    #: True when the answer came from an *expired* cache entry because
    #: no replica was reachable within the retry budget.
    degraded: bool = False

    @property
    def resolved(self) -> bool:
        return self.result is not None


class RetryingResolver:
    """A fault-tolerant resolution client.

    Wraps a :class:`NameResolutionService` with the client-side policy
    every production resolver library implements: per-attempt timeout,
    capped exponential backoff with deterministic jitter (drawn from
    the explicit ``rng``), and failover to the next-nearest replica on
    each retry. A TTL cache (as in :class:`ClientResolverCache`) sits
    in front; on total resolution failure an expired cache entry is
    served as a last resort — the **degraded mode** whose stale
    deliveries the fault-tolerance experiment charges against the
    architecture.
    """

    def __init__(
        self,
        service: NameResolutionService,
        client_region: str,
        policy: RetryPolicy,
        rng: Optional[random.Random] = None,
        ttl_s: float = 0.0,
    ):
        if ttl_s < 0:
            raise ValueError("TTL must be non-negative")
        self._service = service
        self._region = client_region
        self._policy = policy
        self._rng = rng
        self._ttl = ttl_s
        self._cache: Dict[str, Tuple[float, ResolutionResult]] = {}
        self.hits = 0
        self.misses = 0
        self.degraded_serves = 0

    def resolve(self, name: str, now: float) -> ResolveOutcome:
        """Resolve ``name`` at ``now``, retrying across replicas."""
        cached = self._cache.get(name)
        if cached is not None and now - cached[0] < self._ttl:
            self.hits += 1
            hit = cached[1]
            return ResolveOutcome(
                result=ResolutionResult(
                    locations=hit.locations,
                    latency_ms=0.0,
                    from_cache=True,
                    version=hit.version,
                ),
                attempts=0,
                timeouts=0,
                failovers=0,
                total_latency_ms=0.0,
            )
        self.misses += 1
        elapsed_s = 0.0
        timeouts = 0
        failovers = 0
        sites = [s for _, s in self._ranked_sites()]
        for attempt in range(self._policy.max_attempts):
            site = sites[attempt % len(sites)]
            if attempt > 0:
                failovers += 1
            query_time = now + elapsed_s
            if self._service.replica_up(site, query_time):
                latency = self._site_latency(site)
                fresh = self._service.resolve(name, self._region, query_time)
                if fresh is None:
                    # The name is unregistered (replica answered NXDOMAIN).
                    return ResolveOutcome(
                        result=None,
                        attempts=attempt + 1,
                        timeouts=timeouts,
                        failovers=failovers,
                        total_latency_ms=elapsed_s * 1000.0 + 2.0 * latency,
                    )
                result = ResolutionResult(
                    locations=fresh.locations,
                    latency_ms=elapsed_s * 1000.0 + 2.0 * latency,
                    from_cache=False,
                    version=fresh.version,
                )
                if self._ttl > 0:
                    self._cache[name] = (now, result)
                return ResolveOutcome(
                    result=result,
                    attempts=attempt + 1,
                    timeouts=timeouts,
                    failovers=failovers,
                    total_latency_ms=result.latency_ms,
                )
            timeouts += 1
            elapsed_s += self._policy.timeout(attempt, self._rng)
        # Retry budget exhausted: serve the last known binding, stale
        # or not, if one exists — otherwise the resolution fails.
        if cached is not None:
            self.degraded_serves += 1
            stale_result = ResolutionResult(
                locations=cached[1].locations,
                latency_ms=elapsed_s * 1000.0,
                from_cache=True,
                version=cached[1].version,
            )
            return ResolveOutcome(
                result=stale_result,
                attempts=self._policy.max_attempts,
                timeouts=timeouts,
                failovers=failovers,
                total_latency_ms=elapsed_s * 1000.0,
                degraded=True,
            )
        return ResolveOutcome(
            result=None,
            attempts=self._policy.max_attempts,
            timeouts=timeouts,
            failovers=failovers,
            total_latency_ms=elapsed_s * 1000.0,
        )

    def _ranked_sites(self) -> List[Tuple[float, str]]:
        return self._service.region_latencies(self._region)

    def _site_latency(self, site: str) -> float:
        for latency, candidate in self._ranked_sites():
            if candidate == site:
                return latency
        raise KeyError(f"replica {site!r} does not serve {self._region!r}")
