"""Process-local metrics registry: counters, gauges, and trace spans.

One :class:`Metrics` instance collects everything a run wants to know
about itself — how often the artifact cache hit, how many routing
destinations were computed on demand, and where the wall time went.
Three primitives cover those needs:

* **counters** — monotonically accumulated numbers (``incr``), merged
  across processes by summation;
* **gauges** — last-observed values (``gauge``), merged by maximum so
  the result is independent of merge order — *except* size-like gauges:
  a name ending in ``.size`` (e.g. ``oracle.route_cache.size``) is an
  additive resource measurement, so merging per-worker values by
  ``max`` would under-report the aggregate; ``.size`` gauges merge by
  summation instead, which is equally merge-order independent;
* **spans** — nested wall-time intervals (``span``), kept as a tree so
  a profile can show that the topology build happened *inside* the
  fig-8 experiment, and aggregated per name into ``timers``. Each span
  records its ``duration_s`` (inclusive), its ``self_s`` (exclusive:
  duration minus direct children, so a parent is never blamed for its
  children's work), and its ``start_s`` offset from the registry's
  creation, which lets a trace exporter reconstruct the timeline. It
  also stores its own resource readings: ``cpu_s`` (process CPU
  seconds spent inside it, children included) and ``rss_mb`` /
  ``peak_rss_mb`` (current and peak RSS read once at its exit, see
  :func:`repro.obs.resources.sample_resources`).

Everything in a snapshot is plain JSON (dicts, lists, strings,
numbers), so worker processes can ship their metrics back to the
parent inside a pickled :class:`~repro.engine.runner.RunRecord` and
the parent can :meth:`Metrics.merge` them losslessly. Counter merge is
commutative and associative, which is what makes a serial run and a
merged parallel run agree on totals.

The module keeps a process-local *current* registry. Library code
(cache, world, oracle) records through the module-level
:func:`incr` / :func:`gauge` / :func:`span` helpers, which resolve the
current registry at call time; the engine scopes one fresh
:class:`Metrics` per experiment with :func:`using`, so each
:class:`RunRecord` carries exactly the activity of its own experiment.
The registry is process-local, not thread-local: the engine
parallelises with processes, never threads.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .resources import sample_resources

__all__ = [
    "Metrics",
    "SIZE_GAUGE_SUFFIX",
    "metrics",
    "reset_metrics",
    "using",
    "incr",
    "gauge",
    "span",
    "merge_snapshots",
]

#: One module-wide recording lock shared by every registry: counter and
#: gauge writes are read-modify-writes, and a snapshot copies the dicts,
#: so a caller that records from a thread of its own must never race
#: the main thread's recording and snapshotting. A single lock keeps
#: the fork story simple — it is re-initialized in forked children so a
#: fork taken while it is held can never inherit a held lock.
_REC_LOCK = threading.RLock()


def _reset_rec_lock() -> None:
    global _REC_LOCK
    _REC_LOCK = threading.RLock()


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_reset_rec_lock)


def _json_copy(value: Any) -> Any:
    """A detached, guaranteed-JSON-serializable copy of ``value``."""
    return json.loads(json.dumps(value))


def _self_seconds(node: Dict[str, Any]) -> float:
    """Exclusive duration for span dicts recorded before ``self_s``."""
    return max(
        0.0,
        node["duration_s"] - sum(c["duration_s"] for c in node["children"]),
    )


#: Gauges whose name ends with this merge by summation, not maximum.
SIZE_GAUGE_SUFFIX = ".size"


class Metrics:
    """Counters, gauges, and nested wall-time spans for one process."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: Completed root spans, each ``{"name", "start_s", "duration_s",
        #: "self_s", "cpu_s", "rss_mb", "peak_rss_mb", "children"}``;
        #: ``start_s`` is the offset from this registry's creation.
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._epoch = perf_counter()

    # -- recording -------------------------------------------------------

    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        with _REC_LOCK:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest observation of ``name``."""
        with _REC_LOCK:
            self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is below it.

        The read-modify-write is atomic under the recording lock;
        :func:`repro.obs.resources.annotate` keeps its RSS gauges at the
        highest reading this way.
        """
        with _REC_LOCK:
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = value

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Time a ``with`` block as a span named ``name``.

        Spans opened while another span is active become its children,
        so the recorded tree mirrors the dynamic call structure. The
        span is recorded even when the block raises — a failed
        experiment still shows where its time went.

        At exit the span reads its own resources: ``cpu_s`` is the
        :func:`time.process_time` delta over the block, ``rss_mb`` and
        ``peak_rss_mb`` come from one
        :func:`~repro.obs.resources.sample_resources` call. The reading
        falls outside ``duration_s``, so it lands in the parent's
        ``self_s``.
        """
        frame: Dict[str, Any] = {"name": name, "start_s": 0.0,
                                 "duration_s": 0.0, "self_s": 0.0,
                                 "cpu_s": 0.0, "rss_mb": 0.0,
                                 "peak_rss_mb": 0.0, "children": []}
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        started = perf_counter()
        cpu_started = process_time()
        frame["start_s"] = started - self._epoch
        try:
            yield frame
        finally:
            frame["duration_s"] = perf_counter() - started
            frame["cpu_s"] = round(process_time() - cpu_started, 6)
            frame["self_s"] = max(
                0.0,
                frame["duration_s"]
                - sum(c["duration_s"] for c in frame["children"]),
            )
            reading = sample_resources()
            frame["rss_mb"] = round(reading.rss_mb, 3)
            frame["peak_rss_mb"] = round(reading.peak_rss_mb, 3)
            self._stack.pop()
            if parent is not None:
                parent["children"].append(frame)
            else:
                self.spans.append(frame)

    # -- views -----------------------------------------------------------

    @property
    def timers(self) -> Dict[str, Dict[str, float]]:
        """Per-name span aggregation: ``{name: {count, total_s, self_s}}``.

        ``total_s`` is inclusive (a parent's total contains its
        children's), ``self_s`` is exclusive — summing ``self_s`` over
        all names recovers each tree's root duration exactly once, so
        the profile's attribution adds up instead of double-counting.
        """
        out: Dict[str, Dict[str, float]] = {}
        def walk(node: Dict[str, Any]) -> None:
            timer = out.setdefault(node["name"],
                                   {"count": 0, "total_s": 0.0,
                                    "self_s": 0.0})
            timer["count"] += 1
            timer["total_s"] += node["duration_s"]
            timer["self_s"] += node.get("self_s", _self_seconds(node))
            for child in node["children"]:
                walk(child)
        for root in self.spans:
            walk(root)
        return out

    def snapshot(self) -> Dict[str, Any]:
        """A detached JSON-ready view of everything recorded so far."""
        with _REC_LOCK:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
        return {
            "counters": counters,
            "gauges": gauges,
            "timers": self.timers,
            "spans": _json_copy(self.spans),
        }

    # -- merging ---------------------------------------------------------

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters sum, gauges take the maximum — except gauges named
        ``*.size``, which are additive resource measurements and sum
        across workers (taking the max of per-worker route-cache sizes
        would under-report aggregate memory). Both rules are
        commutative and associative, so merge order never matters.
        Span trees are appended. ``timers`` need no merging — they are
        always re-derived from the span trees.
        """
        with _REC_LOCK:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                current = self.gauges.get(name)
                if current is None:
                    self.gauges[name] = value
                elif name.endswith(SIZE_GAUGE_SUFFIX):
                    self.gauges[name] = current + value
                else:
                    self.gauges[name] = max(current, value)
        self.spans.extend(_json_copy(snapshot.get("spans", [])))


# -- the process-local current registry ---------------------------------

_STACK: List[Metrics] = [Metrics()]


def metrics() -> Metrics:
    """The registry that module-level helpers currently record into."""
    return _STACK[-1]


def reset_metrics() -> Metrics:
    """Replace the current registry with a fresh one and return it."""
    fresh = Metrics()
    _STACK[-1] = fresh
    return fresh


@contextmanager
def using(collector: Metrics) -> Iterator[Metrics]:
    """Route all module-level recording to ``collector`` for a block."""
    _STACK.append(collector)
    try:
        yield collector
    finally:
        _STACK.pop()


def incr(name: str, value: float = 1) -> None:
    """Bump a counter on the current registry."""
    metrics().incr(name, value)


def gauge(name: str, value: float) -> None:
    """Record a gauge on the current registry."""
    metrics().gauge(name, value)


def span(name: str):
    """A span context manager on the current registry."""
    return metrics().span(name)


def merge_snapshots(
    snapshots: Iterable[Optional[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Merge many snapshots into one (``None`` entries are skipped)."""
    merged = Metrics()
    for snapshot in snapshots:
        if snapshot:
            merged.merge(snapshot)
    return merged.snapshot()
