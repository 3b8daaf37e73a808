"""The run ledger: a persisted, append-only history of runs.

PR 3 gave a single run eyes; this module gives runs a memory. Every
``repro run`` appends one JSON manifest line to
``$REPRO_LEDGER_DIR/ledger.jsonl`` describing what the run was (git
SHA, code version, seed, scale, Python, platform), what it produced
(per-experiment status, wall time, a digest of each experiment's
``series()`` output, the observed paper-target values), and what it
cost (total wall time, merged counter/gauge/timer totals). Two runs —
or a run and the paper — can then be compared long after the processes
that produced them are gone: ``repro check`` scores the latest entry
against the declared paper targets and the previous entry, and
``repro compare`` diffs any two entries.

Digests make "did the numbers change?" a string comparison: a series
digest is a SHA-256 over the canonical JSON of the series name,
headers, and rows, so bit-identical reproductions hash identically
regardless of process count or completion order, and any numeric drift
— however small — changes the hash.

Like the rest of :mod:`repro.obs`, this module imports nothing from
the rest of ``repro``; it consumes run records duck-typed (anything
with ``name``/``status``/``wall_time_s``/``started_at``/``metrics``/
``series_digests``/``observed`` attributes) so the engine can stay a
client rather than a dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional

from .metrics import merge_snapshots

__all__ = [
    "LEDGER_DIR_ENV",
    "LEDGER_SCHEMA",
    "RunLedger",
    "build_entry",
    "digest_series",
    "git_sha",
    "new_run_id",
]

#: Environment variable naming the ledger directory ("" / "0" / "off" /
#: "none" disable the ledger, mirroring ``REPRO_CACHE_DIR``).
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: Schema tag stamped into every entry, bumped on incompatible change.
LEDGER_SCHEMA = "repro.ledger/v1"

_LEDGER_FILENAME = "ledger.jsonl"


def digest_series(name: str, headers: Iterable[Any],
                  rows: Iterable[Iterable[Any]]) -> str:
    """A short stable digest of one exported data series.

    Canonical JSON (sorted keys, ``repr`` fallback for exotic cell
    types) hashed with SHA-256; two runs produced the same series iff
    their digests match.
    """
    canonical = json.dumps(
        {"name": name, "headers": list(headers),
         "rows": [list(row) for row in rows]},
        sort_keys=True, default=repr,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_sha() -> Optional[str]:
    """The current commit SHA, or None outside a git checkout.

    Tries ``git rev-parse`` first (the truth), then ``GITHUB_SHA``
    (CI checkouts sometimes lack the ``git`` binary in PATH).
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA") or None


def new_run_id(now: Optional[float] = None) -> str:
    """A fresh run id: UTC timestamp prefix + random suffix.

    Minted at run *start* (so the run journal and the eventual ledger
    entry share one id); the timestamp prefix keeps lexical order
    chronological.
    """
    now = time.time() if now is None else now
    return (
        time.strftime("%Y%m%dT%H%M%SZ", time.gmtime(now))
        + "-" + uuid.uuid4().hex[:8]
    )


def build_entry(
    records: Iterable[Any],
    *,
    scale_label: str,
    seed: Optional[int],
    jobs: int,
    elapsed_s: float,
    version: str = "",
    command: str = "run",
    run_id: Optional[str] = None,
    resumed_from: Optional[str] = None,
    driver_metrics: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ledger manifest for a finished run.

    ``records`` are run records (duck-typed, see module docstring).
    The merged metrics totals keep counters, gauges, and timers but
    drop the raw span trees — those are the trace exporter's payload
    (``run --trace-out``) and would bloat an append-forever file.

    ``run_id`` lets the caller reuse the id minted for the run journal;
    ``resumed_from`` marks an entry stitched by ``run --resume`` with
    the journal it resumed. Per-experiment ``attempts`` (>1 = survived
    worker crashes/hangs via re-dispatch) and ``resumed`` (restored
    from a journal, not recomputed) ride along so ``repro compare``
    can flag records that took the recovery paths.

    When a record's metrics carry resource telemetry
    (:mod:`repro.obs.resources`), its experiment dict also gets
    ``peak_rss_mb`` / ``cpu_s`` so perf budgets and ``repro compare``
    can read costs without digging through merged metric totals. The
    engine's ``annotate`` bracket stamps both on every record it runs;
    the fields are absent only for records without them, such as those
    restored from journals written before resource telemetry existed.
    ``driver_metrics`` (the driver process's own snapshot) lands under
    ``entry["resources"]["driver"]`` — driver costs must not be merged
    into experiment totals or serial and pooled runs would disagree.

    ``extra`` merges additional top-level fields into the manifest —
    the sweep engine stamps ``sweep_id``/``cell_id``/``cell``/
    ``config_hash`` on each per-cell entry this way. Extra keys must
    not collide with schema fields.
    """
    records = list(records)
    totals = merge_snapshots(
        getattr(record, "metrics", None) for record in records
    )
    totals.pop("spans", None)
    experiments: Dict[str, Any] = {}
    for record in records:
        exp: Dict[str, Any] = {
            "status": record.status,
            "wall_s": round(record.wall_time_s, 3),
            "started_at": round(getattr(record, "started_at", 0.0), 3),
            "series_digests": dict(getattr(record, "series_digests", {})),
            "observed": dict(getattr(record, "observed", {})),
            "attempts": int(getattr(record, "attempts", 1)),
            "resumed": bool(getattr(record, "resumed", False)),
        }
        metrics = getattr(record, "metrics", None) or {}
        peak = (metrics.get("gauges") or {}).get("resources.peak_rss_mb")
        cpu = (metrics.get("counters") or {}).get("resources.cpu_s")
        if peak is not None:
            exp["peak_rss_mb"] = round(float(peak), 1)
        if cpu is not None:
            exp["cpu_s"] = round(float(cpu), 3)
        experiments[record.name] = exp
    now = time.time()
    entry = {
        "schema": LEDGER_SCHEMA,
        "run_id": run_id if run_id else new_run_id(now),
        "resumed_from": resumed_from,
        "command": command,
        "started_at": round(now - elapsed_s, 3),
        "wall_s": round(elapsed_s, 3),
        "scale": scale_label,
        "seed": seed,
        "jobs": jobs,
        "git_sha": git_sha(),
        "version": version,
        "python": platform.python_version(),
        "platform": f"{sys.platform}-{platform.machine()}",
        "experiments": experiments,
        "totals": totals,
    }
    if driver_metrics:
        driver: Dict[str, Any] = {}
        gauges = driver_metrics.get("gauges") or {}
        counters = driver_metrics.get("counters") or {}
        peak = gauges.get("resources.peak_rss_mb")
        if peak is not None:
            driver["peak_rss_mb"] = round(float(peak), 1)
        cpu = counters.get("resources.cpu_s")
        if cpu is not None:
            driver["cpu_s"] = round(float(cpu), 3)
        degraded = counters.get("resources.degraded")
        if degraded:
            driver["degraded"] = int(degraded)
        if driver:
            entry["resources"] = {"driver": driver}
    if extra:
        collisions = set(extra) & set(entry)
        if collisions:
            raise ValueError(
                f"extra fields collide with ledger schema: {sorted(collisions)}"
            )
        entry.update(extra)
    return entry


class RunLedger:
    """An append-only JSONL file of run manifests under one directory.

    The directory is created lazily, on the first :meth:`append` — a
    read-only command (``repro check``, ``compare``, ``--resume``)
    pointed at a missing or impossible ledger path (e.g. a file where
    the directory should be) must report "no entries", not crash
    constructing the ledger object.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)

    @classmethod
    def from_env(cls) -> Optional["RunLedger"]:
        """The ledger named by ``REPRO_LEDGER_DIR``, or None if unset."""
        root = os.environ.get(LEDGER_DIR_ENV, "").strip()
        if not root or root.lower() in ("0", "off", "none"):
            return None
        return cls(root)

    @property
    def path(self) -> str:
        return os.path.join(self.root, _LEDGER_FILENAME)

    def append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Append one manifest line; returns the entry unchanged.

        Raises :class:`OSError` when the ledger directory cannot be
        created or written (path is a file, permissions) — callers
        surface that as a friendly one-liner, not a traceback.
        """
        os.makedirs(self.root, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    def entries(self) -> List[Dict[str, Any]]:
        """All manifests, oldest first; corrupt lines are skipped.

        A truncated final line (crash mid-append) or hand-mangled line
        must not take the whole history down — unparseable lines are
        dropped, not raised.
        """
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    out.append(entry)
        return out

    def latest(self) -> Optional[Dict[str, Any]]:
        """The most recent manifest, or None on an empty ledger."""
        entries = self.entries()
        return entries[-1] if entries else None

    def previous(
        self, entry: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The most recent earlier entry comparable to ``entry``.

        Comparable = same scale and seed: drift detection compares a
        deterministic function of ``(scale, seed)`` against itself, so
        a small-scale run never reads as "drift" from a paper-scale one.
        """
        candidates = [
            e for e in self.entries()
            if e.get("run_id") != entry.get("run_id")
            and e.get("scale") == entry.get("scale")
            and e.get("seed") == entry.get("seed")
            and e.get("started_at", 0) <= entry.get("started_at", 0)
        ]
        return candidates[-1] if candidates else None

    def resolve(self, ref: str) -> Dict[str, Any]:
        """Look up one entry by ``run_id``, ``"last"``, or ``-N`` index.

        ``-1`` (alias ``last``/``latest``) is the newest entry, ``-2``
        the one before it, and so on. Raises :class:`KeyError` with the
        available ids when nothing matches.
        """
        entries = self.entries()
        if ref in ("last", "latest"):
            ref = "-1"
        try:
            index = int(ref)
        except ValueError:
            for entry in entries:
                if entry.get("run_id") == ref:
                    return entry
        else:
            if index < 0 and len(entries) >= -index:
                return entries[index]
        known = ", ".join(e.get("run_id", "?") for e in entries[-5:])
        raise KeyError(
            f"no ledger entry {ref!r} in {self.path}"
            + (f" (recent: {known})" if known else " (ledger is empty)")
        )
