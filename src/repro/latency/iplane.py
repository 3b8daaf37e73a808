"""iPlane-style path and latency prediction (§6.3.2).

The paper estimates the network distance between a user's dominant
("home") location and its current location with iPlane, which predicts
the route and latency between arbitrary IP pairs by composing measured
traceroute segments. Two properties of iPlane shape the paper's
analysis and are reproduced here:

* **coverage censoring** — iPlane "returns valid responses for only 5%
  of the dominant and current IP address pairs", because it answers
  only when it has measured segments near both endpoints;
* **prediction** — when it answers, the latency is that of a composed
  (policy-plausible) route, not a geodesic.

Our predictor composes the policy path from the routing oracle with the
topology's distance-based link latencies, censors pairs whose endpoint
ASes are not in the measured set, and separately exposes the §6.3.2
lower bound: the shortest AS path over the *physical* topology, "even
if this route may not exist in the AS-level routing topology".
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..net import IPv4Address
from ..routing import RoutingOracle
from ..topology import ASTopology

__all__ = ["PathPrediction", "IPlanePredictor"]


@dataclass(frozen=True)
class PathPrediction:
    """A predicted route between two network locations."""

    latency_ms: float
    as_path: Tuple[int, ...]

    @property
    def as_hops(self) -> int:
        """Number of inter-AS hops on the predicted path."""
        return max(len(self.as_path) - 1, 0)


class IPlanePredictor:
    """Latency/path predictor with measured-coverage censoring."""

    def __init__(
        self,
        oracle: RoutingOracle,
        coverage_fraction: float = 0.05,
        seed: int = 2014,
        queuing_jitter_ms: float = 20.0,
        access_ms: float = 18.0,
    ):
        if not 0.0 < coverage_fraction <= 1.0:
            raise ValueError(f"bad coverage fraction: {coverage_fraction}")
        self._oracle = oracle
        self._topology = oracle.topology
        self._seed = seed
        self._jitter = queuing_jitter_ms
        self._access = access_ms
        # Pair coverage ~= per-AS coverage squared: mark each AS as
        # "measured" i.i.d. so that P(both endpoints measured) equals
        # the requested pair-coverage fraction.
        per_as = coverage_fraction ** 0.5
        rng = random.Random(seed)
        self._measured: Dict[int, bool] = {
            asn: rng.random() < per_as for asn in sorted(self._topology.ases)
        }

    @property
    def topology(self) -> ASTopology:
        """The underlying AS topology."""
        return self._topology

    def is_measured(self, asn: int) -> bool:
        """True if iPlane has traceroute segments touching ``asn``."""
        return self._measured.get(asn, False)

    def predict_as(self, src_asn: int, dst_asn: int) -> Optional[PathPrediction]:
        """Predicted route between two ASes, or None if uncovered."""
        if not (self.is_measured(src_asn) and self.is_measured(dst_asn)):
            return None
        if src_asn == dst_asn:
            return PathPrediction(latency_ms=self._intra_as_ms(src_asn),
                                  as_path=(src_asn,))
        best = self._oracle.best_path(src_asn, dst_asn)
        if best is None:
            return None
        base = self._topology.path_latency_ms(best.path)
        jitter = self._pair_jitter(src_asn, dst_asn)
        # Last-mile access delay at both ends (radio wake-up, DSL
        # interleaving) — iPlane latencies are end-to-end.
        return PathPrediction(
            latency_ms=base + jitter + self._access, as_path=best.path
        )

    def predict(
        self, src: IPv4Address, dst: IPv4Address
    ) -> Optional[PathPrediction]:
        """Predicted route between two addresses, or None if uncovered."""
        src_asn = self._topology.origin_of_address(src)
        dst_asn = self._topology.origin_of_address(dst)
        if src_asn is None or dst_asn is None:
            return None
        return self.predict_as(src_asn, dst_asn)

    def shortest_physical_as_hops(
        self, src_asn: int, dst_asn: int
    ) -> Optional[int]:
        """§6.3.2 lower bound: shortest AS path in the physical graph."""
        return self._topology.shortest_as_hops(src_asn).get(dst_asn)

    def _intra_as_ms(self, asn: int) -> float:
        return 1.0 + self._pair_jitter(asn, asn) * 0.25

    def _pair_jitter(self, a: int, b: int) -> float:
        """Deterministic per-pair extra delay (queueing, intra-AS legs)."""
        digest = zlib.crc32(f"{self._seed}|{a}|{b}".encode())
        return (digest % 1000) / 1000.0 * self._jitter
