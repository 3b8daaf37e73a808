"""Resource telemetry: RSS / peak-RSS / CPU readings for every process.

The harness measures update cost, path stretch, and FIB size with
paper-grade rigor; this module applies the same rigor to the harness's
own footprint. Readings are taken at boundaries the code already has,
never by a timer: every :mod:`repro.obs.metrics` span stores its own
CPU seconds and the RSS at its exit, and the engine brackets every
experiment with :func:`annotate`, in the driver and in pooled workers
alike.

Two reading sources, tried in order:

* ``/proc/self/status`` (``VmRSS`` / ``VmHWM``) — current and peak RSS
  on Linux;
* :func:`resource.getrusage` — peak RSS and CPU time everywhere POSIX.

When ``/proc`` is unavailable (macOS, containers with hidden procfs)
a reading **degrades instead of crashing**: peak RSS stands in for
current RSS, and :func:`annotate` bumps the ``resources.degraded``
counter so the gap is visible in the run manifest.

What :func:`annotate` lands in the registry (merge rules in
parentheses):

* ``resources.rss_mb`` — RSS at the block's exit (gauge, max);
* ``resources.peak_rss_mb`` — OS-reported process peak RSS (gauge,
  max);
* ``resources.cpu_s`` — CPU seconds the block consumed (counter, sum);
* ``resources.degraded`` — readings served without ``/proc``
  (counter).

Because all of these ride the existing counter/gauge merge rules
(counters sum, gauges max), serial and pooled runs produce snapshots
with the same *shape* and deterministic merge semantics — the values
are measurements, the plumbing is not. The engine wraps every
experiment execution in :func:`annotate`, so every
:class:`~repro.engine.runner.RunRecord` carries the three resource
keys, and a record's ``resources.rss_mb`` is its process's RSS when
the experiment finished.

Like every ``repro.obs`` module this imports nothing from the rest of
``repro``. :mod:`repro.obs.metrics` imports :func:`sample_resources`
for its span readings, so this module names :class:`Metrics` only for
type checking.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

if TYPE_CHECKING:
    from .metrics import Metrics

__all__ = [
    "ResourceSample",
    "sample_resources",
    "annotate",
]

_PROC_STATUS = "/proc/self/status"

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class ResourceSample:
    """One observation of this process's footprint."""

    #: Current resident set size in MB (peak RSS when degraded).
    rss_mb: float
    #: Lifetime peak resident set size in MB.
    peak_rss_mb: float
    #: Total CPU seconds (user + system) consumed so far.
    cpu_s: float
    #: True when ``/proc`` was unavailable and peak RSS stood in for
    #: current RSS.
    degraded: bool = False


def _proc_status_kb() -> Optional[Tuple[float, float]]:
    """(VmRSS, VmHWM) in kB from ``/proc/self/status``, or None.

    Any failure — missing procfs, hidden ``/proc`` in a container,
    unexpected format — returns None; the caller falls back to
    ``getrusage``. Reading must never raise.
    """
    try:
        rss = hwm = None
        with open(_PROC_STATUS, "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    rss = float(line.split()[1])
                elif line.startswith(b"VmHWM:"):
                    hwm = float(line.split()[1])
                if rss is not None and hwm is not None:
                    break
        if rss is None:
            return None
        return rss, hwm if hwm is not None else rss
    except Exception:
        return None


def _rusage() -> Tuple[float, float]:
    """(peak RSS in MB, CPU seconds) from ``getrusage``; (0, cpu) if even
    that is unavailable (non-POSIX platforms)."""
    try:
        import resource as resource_mod

        usage = resource_mod.getrusage(resource_mod.RUSAGE_SELF)
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        factor = 1.0 if sys.platform == "darwin" else 1024.0
        return (
            usage.ru_maxrss * factor / _MB,
            usage.ru_utime + usage.ru_stime,
        )
    except Exception:
        import time

        return 0.0, time.process_time()


def sample_resources() -> ResourceSample:
    """Sample this process's RSS / peak RSS / CPU right now.

    Never raises: when ``/proc`` is unavailable the sample degrades to
    ``getrusage`` (peak RSS stands in for current RSS) and is flagged
    ``degraded`` so callers can count it.
    """
    peak_mb, cpu_s = _rusage()
    proc = _proc_status_kb()
    if proc is not None:
        rss_kb, hwm_kb = proc
        return ResourceSample(
            rss_mb=rss_kb / 1024.0,
            peak_rss_mb=max(hwm_kb / 1024.0, peak_mb),
            cpu_s=cpu_s,
        )
    return ResourceSample(
        rss_mb=peak_mb, peak_rss_mb=peak_mb, cpu_s=cpu_s, degraded=True
    )


# -- recording ------------------------------------------------------------


def _record_sample(
    registry: Metrics, sample: ResourceSample, cpu_delta: float,
) -> None:
    """Fold one reading and the CPU spent before it into ``registry``."""
    registry.incr("resources.cpu_s", round(cpu_delta, 6))
    registry.gauge_max("resources.rss_mb", round(sample.rss_mb, 3))
    registry.gauge_max("resources.peak_rss_mb",
                       round(sample.peak_rss_mb, 3))
    if sample.degraded:
        registry.incr("resources.degraded")


class _AnnotateContext:
    """Context manager bracketing one experiment with explicit readings."""

    def __init__(self, registry: Metrics) -> None:
        self._registry = registry
        self._start: Optional[ResourceSample] = None

    def __enter__(self) -> "_AnnotateContext":
        self._start = sample_resources()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = sample_resources()
        start = self._start
        cpu = max(0.0, end.cpu_s - (start.cpu_s if start else 0.0))
        _record_sample(self._registry, end, cpu)


def annotate(registry: Metrics) -> _AnnotateContext:
    """Bracket a block with start/end readings on ``registry``.

    The registry gains ``resources.cpu_s`` (the block's CPU delta, a
    summing counter) and the RSS gauges as read at the block's exit —
    the engine wraps every experiment execution in this, so resource
    keys are present on every record deterministically.
    """
    return _AnnotateContext(registry)

