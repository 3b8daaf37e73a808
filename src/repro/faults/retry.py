"""Retry policies: timeouts with capped exponential backoff.

Both fault-aware clients use the same policy object: the name-routing
update retransmit timers (per-router, per-neighbor) and the resolution
client's replica failover loop. Jitter, when enabled, is drawn from an
explicit :class:`random.Random`, so a policy applied under a fixed seed
is fully deterministic — "deterministic jitter" in the sense that the
whole experiment replays bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..stats import sequential_sum

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff.

    Attempt ``k`` (0-based) times out after ``timeout(k)``; the next
    attempt starts immediately after the timeout expires. ``timeout(k)``
    is ``initial_timeout * backoff_factor**k``, capped at
    ``max_timeout`` and perturbed by up to ``±jitter_fraction`` when an
    rng is supplied.
    """

    initial_timeout: float = 1.0
    backoff_factor: float = 2.0
    max_timeout: float = 60.0
    max_attempts: int = 8
    jitter_fraction: float = 0.0

    def __post_init__(self):
        if self.initial_timeout <= 0:
            raise ValueError("initial_timeout must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_timeout < self.initial_timeout:
            raise ValueError("max_timeout must be >= initial_timeout")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")

    def timeout(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The timeout for 0-based ``attempt``, with optional jitter."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0: {attempt}")
        base = min(
            self.initial_timeout * self.backoff_factor ** attempt,
            self.max_timeout,
        )
        if self.jitter_fraction and rng is not None:
            base *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return base

    def backoff_penalty(
        self, failed_attempts: int, rng: Optional[random.Random] = None
    ) -> float:
        """Total time burned by ``failed_attempts`` timeouts in a row."""
        return sequential_sum(
            self.timeout(k, rng) for k in range(failed_attempts)
        )

    def timeouts(self, rng: Optional[random.Random] = None) -> List[float]:
        """The full ladder of per-attempt timeouts."""
        return [self.timeout(k, rng) for k in range(self.max_attempts)]
