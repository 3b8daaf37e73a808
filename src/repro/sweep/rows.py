"""Tidy result rows: one row per (cell, experiment, metric) + CSV.

The sweep's output is a long-format table — the shape every plotting
and stats tool ingests directly. Identifying columns are the cell id
and the swept axis coordinates; each record contributes one row per
observed paper-target metric (``observed:<key>``) and one per exported
series digest (``digest:<series>``), so both the science and the
"did the numbers change?" fingerprint live in the same file. A record
with neither (e.g. a failed experiment) still gets one placeholder row
so the grid stays visibly complete.

The CSV is *deterministic by construction*: rows follow grid order,
then spec experiment order, then sorted metric names; float values are
rendered with ``repr`` (shortest round-trip form). No wall times, no
timestamps, no sweep id — a serial run, a pooled run, and a resumed
run of the same spec produce byte-identical files.

Resource telemetry rides along as ``resource:peak_rss_mb`` /
``resource:cpu_s`` rows when the record's metrics carry readings — but
those values are *measurements*, different on every run, so
:func:`to_csv` filters them out by default to keep the byte-identity
guarantee (and the CI ``cmp`` gates built on it); ``repro sweep
--resources`` opts in.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, Iterable, List, Sequence

from .spec import Cell

__all__ = ["header", "rows_for", "to_csv"]

_FIXED_LEFT = ("cell_id",)
_FIXED_RIGHT = ("experiment", "status", "metric", "value")


def header(axis_names: Sequence[str]) -> List[str]:
    """The CSV column list for a sweep over ``axis_names``."""
    return [*_FIXED_LEFT, *axis_names, *_FIXED_RIGHT]


def _render(value: Any) -> str:
    """A deterministic, round-trippable cell rendering."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_for(
    cell: Cell, experiment: str, record: Any
) -> List[Dict[str, str]]:
    """The tidy rows one record contributes (see module docstring).

    ``record`` is duck-typed: anything with ``status``, ``observed``,
    and ``series_digests`` attributes (the engine's ``RunRecord``,
    journaled or fresh alike).
    """
    identity = {
        "cell_id": cell.cell_id,
        **{axis: _render(value) for axis, value in cell.axes},
        "experiment": experiment,
        "status": str(getattr(record, "status", "")),
    }
    rows: List[Dict[str, str]] = []
    for key in sorted(getattr(record, "observed", {}) or {}):
        rows.append({
            **identity,
            "metric": f"observed:{key}",
            "value": _render(record.observed[key]),
        })
    for series in sorted(getattr(record, "series_digests", {}) or {}):
        rows.append({
            **identity,
            "metric": f"digest:{series}",
            "value": _render(record.series_digests[series]),
        })
    if not rows:
        rows.append({**identity, "metric": "", "value": ""})
    # Resource rows come AFTER the placeholder decision: they are
    # nondeterministic measurements, so they must never make a row set
    # "non-empty" that the deterministic default CSV would render as a
    # placeholder.
    metrics = getattr(record, "metrics", None) or {}
    peak = (metrics.get("gauges") or {}).get("resources.peak_rss_mb")
    cpu = (metrics.get("counters") or {}).get("resources.cpu_s")
    if peak is not None:
        rows.append({
            **identity,
            "metric": "resource:peak_rss_mb",
            "value": _render(round(float(peak), 1)),
        })
    if cpu is not None:
        rows.append({
            **identity,
            "metric": "resource:cpu_s",
            "value": _render(round(float(cpu), 3)),
        })
    return rows


_RESOURCE_PREFIX = "resource:"


def to_csv(
    axis_names: Sequence[str],
    rows: Iterable[Dict[str, str]],
    include_resources: bool = False,
) -> str:
    """Render rows as CSV text (``\\n`` line endings, header first).

    ``resource:*`` rows are dropped unless ``include_resources`` —
    they carry run-to-run-varying measurements, and the default CSV is
    byte-identical across serial/pooled/resumed runs by contract.
    """
    out = io.StringIO()
    writer = csv.DictWriter(
        out, fieldnames=header(axis_names), lineterminator="\n"
    )
    writer.writeheader()
    for row in rows:
        if (not include_resources
                and row.get("metric", "").startswith(_RESOURCE_PREFIX)):
            continue
        writer.writerow(row)
    return out.getvalue()
