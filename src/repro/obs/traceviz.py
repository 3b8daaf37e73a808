"""Trace export: span trees as Chrome trace-event JSON.

``repro run --trace-out FILE`` turns the nested spans every experiment
records (:mod:`repro.obs.metrics`) into the `Chrome trace-event
format`_ understood by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``: one "thread" track per experiment, one complete
("X") event per span, offset-corrected so spans recorded in different
worker processes land on one shared timeline. Each event's args carry
the span's exclusive time (``self_us``) and its own CPU seconds and
RSS readings (``cpu_s``, ``rss_mb``, ``peak_rss_mb``).

Offset correction works in two layers: each span carries ``start_s``
(its offset from its collector's creation, measured by the worker's
own monotonic clock), and each run record carries ``started_at`` (the
wall-clock time its collector was created). ``ts = (started_at - t0) +
start_s`` — wall clock aligns the processes, the monotonic clock
orders spans within one, and the whole trace starts at zero.

.. _Chrome trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

Duck-typed like its siblings: anything with ``name``, ``started_at``
and ``metrics`` attributes is a record; no engine import needed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["chrome_trace", "write_chrome_trace"]

_PID = 1  # one logical "process": the run

#: Per-span resource readings (:meth:`repro.obs.Metrics.span`) copied
#: into each event's args; spans from older journals may lack them.
_READINGS = ("cpu_s", "rss_mb", "peak_rss_mb")


def _self_us(node: Dict[str, Any]) -> float:
    fallback = node["duration_s"] - sum(
        c["duration_s"] for c in node.get("children", ())
    )
    return max(0.0, node.get("self_s", fallback)) * 1e6


def _span_events(
    node: Dict[str, Any], base_us: float, tid: int,
    events: List[Dict[str, Any]],
) -> None:
    start_us = base_us + node.get("start_s", 0.0) * 1e6
    args: Dict[str, Any] = {"self_us": round(_self_us(node), 1)}
    for key in _READINGS:
        if key in node:
            args[key] = node[key]
    events.append({
        "name": node["name"],
        "ph": "X",
        "cat": "span",
        "ts": round(start_us, 1),
        "dur": round(node["duration_s"] * 1e6, 1),
        "pid": _PID,
        "tid": tid,
        "args": args,
    })
    for child in node.get("children", ()):
        _span_events(child, base_us, tid, events)


def chrome_trace(records: Iterable[Any],
                 label: str = "repro run") -> Dict[str, Any]:
    """A Chrome trace-event document for a run's records.

    Each record becomes one named thread track holding its span tree;
    records with no spans still get a track (an experiment that
    recorded nothing is itself a finding). Timestamps are microseconds
    from the earliest record's start.
    """
    records = list(records)
    starts = [
        getattr(r, "started_at", 0.0) or 0.0 for r in records
    ]
    t0 = min((s for s in starts if s), default=0.0)
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": label},
    }]
    for tid, (record, started_at) in enumerate(zip(records, starts),
                                               start=1):
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": record.name},
        })
        base_us = max(0.0, started_at - t0) * 1e6
        for root in (getattr(record, "metrics", None) or {}).get(
            "spans", ()
        ):
            _span_events(root, base_us, tid, events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs.traceviz"},
    }


def write_chrome_trace(records: Iterable[Any], path: str,
                       label: str = "repro run") -> str:
    """Write :func:`chrome_trace` to ``path``; returns the path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(records, label=label), handle)
        handle.write("\n")
    return path
