"""Command-line interface: run any paper artifact from the shell.

Usage::

    python -m repro list
    python -m repro run fig8 --scale small
    python -m repro run all --scale small --jobs 4
    python -m repro run all --scale small --format json
    python -m repro run all --trace-out trace.json
    python -m repro check
    python -m repro compare -2 -1
    python -m repro report --perf
    python -m repro sweep spec.json --jobs 4 --csv sweep.csv
    python -m repro export --out results/ --scale small

``run`` prints the same rows/series the paper reports; ``export``
additionally writes the raw series behind each figure as CSV files so
they can be re-plotted. ``--jobs N`` fans experiments out over worker
processes (output is identical to a serial run); ``--format json``
emits one machine-readable record per experiment instead of text.
``--profile`` appends a :mod:`repro.obs` report (per-experiment phase
timings, the slowest spans by exclusive time, cache/oracle counters);
``--metrics-out FILE`` writes the merged metrics snapshot as JSON and
``--trace-out FILE`` writes the span trees as Chrome trace-event JSON
viewable in Perfetto.

Every run also measures its own footprint (:mod:`repro.obs.resources`):
every span carries its CPU seconds and RSS at exit; records,
manifests, and sweep rows carry peak RSS and CPU per experiment;
``--progress`` renders a live status line with the driver's RSS and an
ETA; ``check`` additionally enforces the ``PERF_BUDGETS`` bands
experiment modules declare (nonzero exit on a blown budget); and
``report --perf`` writes the ``BENCH_<git-sha>.json`` trajectory
record CI uploads per commit.

When a run ledger is configured (``REPRO_LEDGER_DIR`` or
``--ledger-dir``), every ``run`` appends a manifest — git SHA, seed,
scale, per-experiment wall time/status/series digests, observed
paper-target values — to ``ledger.jsonl``. ``check`` scores the
latest entry against the paper targets declared by the experiment
modules (pass/drift/regress; nonzero exit on regression), and
``compare`` diffs two entries (wall-time deltas, counter deltas,
series-digest mismatches), flagging records that completed via the
retry or resume recovery paths.

Runs are *resilient*: ``--timeout-s`` arms a per-experiment deadline
(overridden per experiment by a module-level ``TIMEOUT_S``) enforced
by a parent-side watchdog that kills hung workers and re-dispatches
with capped backoff; a ledgered run also journals each completed
experiment to ``journal-<run id>.jsonl`` next to the ledger, so a
killed run is resumed with ``run --resume <run-id|last>`` — completed
experiments are skipped and the stitched ledger entry carries digests
byte-identical to an uninterrupted run. ``REPRO_CHAOS``
(``kill:P,hang:P,corrupt:P[,seed:N]``) injects worker and cache
faults to prove those paths; ``REPRO_CACHE_MAX_MB`` bounds the
artifact cache with LRU eviction.

``sweep`` runs a declarative grid of configurations from a JSON spec
(:mod:`repro.sweep`): base options × sweep axes × replications expand
into cells, every (cell, experiment) pair fans through the resilient
runner, and the result is a deterministic tidy CSV (one row per cell,
experiment, and metric — stdout, or ``--csv FILE``) plus one ledger
manifest per cell. An interrupted sweep is resumed with ``sweep
<spec> --resume <sweep-id|last>``; completed (cell, experiment) pairs
are skipped and the stitched output is byte-identical.

Experiments come from the :mod:`repro.engine` registry — each
``exp_*`` module registers itself — and run through the engine's
runner, which isolates failures: one broken experiment never aborts
``run all``, it is reported in the end-of-run summary and reflected in
the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from time import perf_counter, time
from typing import Dict, List, Optional, Sequence

from . import __version__, obs
from .engine import (
    CHAOS_ENV,
    ArtifactCache,
    ChaosConfig,
    RunJournal,
    RunRecord,
    all_specs,
    experiment_names,
    get_spec,
    run_config_hash,
    run_experiments,
    stitch_records,
)
from .experiments import DEFAULT_SCALE, SMALL_SCALE, World
from .experiments.report import format_band, format_delta, render_table

__all__ = ["main"]


def _seed_type(text: str) -> int:
    """argparse type for ``--seed``: a non-negative integer."""
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, got {text!r}"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be non-negative, got {value}"
        )
    return value


def _jobs_type(text: str) -> int:
    """argparse type for ``--jobs``: a positive integer."""
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"jobs must be an integer, got {text!r}"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"jobs must be positive, got {value}"
        )
    return value


def _timeout_type(text: str) -> float:
    """argparse type for ``--timeout-s``: a positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"timeout must be a number of seconds, got {text!r}"
        )
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"timeout must be positive, got {value:g}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the SIGCOMM'14 location-independence "
        "comparison, one artifact at a time.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the code version (stamped into run manifests)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help="which artifact to reproduce ('repro list' shows them all)",
    )
    run_parser.add_argument(
        "--scale",
        choices=["paper", "small"],
        default="paper",
        help="workload scale (default: the paper's parameters)",
    )
    run_parser.add_argument(
        "--seed",
        type=_seed_type,
        default=None,
        help="override the workload seed (non-negative integer)",
    )
    run_parser.add_argument(
        "--jobs",
        type=_jobs_type,
        default=1,
        help="worker processes (default 1: run in-process)",
    )
    run_parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="output_format",
        help="text output (default) or one JSON record per experiment",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="append per-experiment phase timings, the slowest spans, "
        "and cache/oracle counters (stderr under --format json)",
    )
    run_parser.add_argument(
        "--progress",
        action="store_true",
        help="live status line on stderr: done/running/queued counts, "
        "driver RSS, ETA from comparable ledger history",
    )
    run_parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        dest="metrics_out",
        help="write the merged repro.obs metrics snapshot as JSON",
    )
    run_parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        dest="trace_out",
        help="write span trees as Chrome trace-event JSON (Perfetto)",
    )
    run_parser.add_argument(
        "--ledger-dir",
        metavar="DIR",
        default=None,
        dest="ledger_dir",
        help=f"append the run manifest to DIR/ledger.jsonl "
        f"(default: ${obs.LEDGER_DIR_ENV})",
    )
    run_parser.add_argument(
        "--timeout-s",
        metavar="SECONDS",
        type=_timeout_type,
        default=None,
        dest="timeout_s",
        help="per-experiment soft deadline: hung workers are killed "
        "and re-dispatched with capped backoff (experiment modules "
        "may override via TIMEOUT_S)",
    )
    run_parser.add_argument(
        "--resume",
        metavar="RUN",
        default=None,
        dest="resume",
        help="resume an interrupted run from its journal ('last' or a "
        "run id); journal-completed experiments are skipped and the "
        "stitched ledger entry matches an uninterrupted run",
    )

    check_parser = sub.add_parser(
        "check",
        help="score the latest ledgered run against the paper targets",
    )
    check_parser.add_argument(
        "--ledger-dir", metavar="DIR", default=None, dest="ledger_dir",
        help=f"ledger directory (default: ${obs.LEDGER_DIR_ENV})",
    )

    compare_parser = sub.add_parser(
        "compare", help="diff two ledgered runs (wall time, counters, "
        "series digests)",
    )
    compare_parser.add_argument(
        "run_a", help="ledger entry: run id, 'last', or -N (e.g. -2)"
    )
    compare_parser.add_argument(
        "run_b", help="ledger entry: run id, 'last', or -N (e.g. -1)"
    )
    compare_parser.add_argument(
        "--ledger-dir", metavar="DIR", default=None, dest="ledger_dir",
        help=f"ledger directory (default: ${obs.LEDGER_DIR_ENV})",
    )
    compare_parser.add_argument(
        "--fail-on-diff", action="store_true", dest="fail_on_diff",
        help="exit 1 when any shared experiment's series digests "
        "differ (for CI parity gates)",
    )

    sweep_parser = sub.add_parser(
        "sweep",
        help="run a declarative grid of configurations from a JSON spec",
    )
    sweep_parser.add_argument(
        "spec",
        help="sweep spec file: {name, experiments, base, axes, "
        "replications, timeout_s} (see DESIGN.md)",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=_jobs_type,
        default=1,
        help="worker processes shared by all cells (default 1)",
    )
    sweep_parser.add_argument(
        "--csv",
        metavar="FILE",
        default=None,
        dest="csv_out",
        help="write the tidy result CSV here (default: stdout)",
    )
    sweep_parser.add_argument(
        "--ledger-dir",
        metavar="DIR",
        default=None,
        dest="ledger_dir",
        help=f"ledger directory for per-cell manifests and the sweep "
        f"journal (default: ${obs.LEDGER_DIR_ENV})",
    )
    sweep_parser.add_argument(
        "--resume",
        metavar="SWEEP",
        default=None,
        dest="resume",
        help="resume an interrupted sweep from its journal ('last' or "
        "a sweep id); completed (cell, experiment) pairs are skipped "
        "and the stitched CSV is byte-identical",
    )
    sweep_parser.add_argument(
        "--resources",
        action="store_true",
        help="include resource:peak_rss_mb / resource:cpu_s rows in "
        "the CSV (measurements — the CSV is no longer byte-identical "
        "across runs)",
    )
    sweep_parser.add_argument(
        "--progress",
        action="store_true",
        help="live status line on stderr: done/running/queued task "
        "counts and driver RSS",
    )

    report_parser = sub.add_parser(
        "report",
        help="emit machine-readable summaries of the latest ledgered run",
    )
    report_parser.add_argument(
        "--perf",
        action="store_true",
        help="write BENCH_<git-sha>.json: per-experiment wall/RSS/CPU, "
        "driver resources, and perf-budget scores (the benchmark "
        "trajectory record CI uploads)",
    )
    report_parser.add_argument(
        "--out",
        metavar="DIR",
        default=".",
        help="directory for the report file (default: current dir)",
    )
    report_parser.add_argument(
        "--ledger-dir", metavar="DIR", default=None, dest="ledger_dir",
        help=f"ledger directory (default: ${obs.LEDGER_DIR_ENV})",
    )

    export_parser = sub.add_parser(
        "export", help="run everything and write CSV series"
    )
    export_parser.add_argument("--out", default="results", help="output dir")
    export_parser.add_argument(
        "--scale", choices=["paper", "small"], default="paper"
    )
    export_parser.add_argument(
        "--seed",
        type=_seed_type,
        default=None,
        help="override the workload seed (non-negative integer)",
    )
    return parser


def _scale_for(label: str, seed: Optional[int] = None):
    scale = SMALL_SCALE if label == "small" else DEFAULT_SCALE
    if seed is not None:
        scale = dataclasses.replace(scale, seed=seed)
    return scale


def _span_self_s(node) -> float:
    """Exclusive span time, tolerating pre-``self_s`` snapshots."""
    fallback = node["duration_s"] - sum(
        c["duration_s"] for c in node["children"]
    )
    return max(0.0, node.get("self_s", fallback))


def _profile_report(records, driver=None) -> str:
    """The ``--profile`` text: phases, slowest spans, counters, gauges.

    Spans report both inclusive (``total``) and exclusive (``self``)
    time, and the slowest-span table ranks by exclusive time — a
    parent is never blamed for work its children did.

    ``driver`` is the parent process's own metrics snapshot — the
    World prebuilt before the pool starts (``runner.prebuild_world``
    and the substrate spans inside it) and the cache traffic it caused
    live there, not in any worker record, so they get their own
    section.
    """
    lines = ["", "== profile: per-experiment phases =="]
    for record in records:
        lines.append(
            f"{record.name}  [{record.status}]  {record.wall_time_s:.2f}s"
        )
        timers = (record.metrics or {}).get("timers", {})
        for name, timer in sorted(
            timers.items(), key=lambda item: -item[1]["total_s"]
        ):
            self_s = timer.get("self_s", timer["total_s"])
            lines.append(
                f"    {name:<34} {timer['count']:>4}x  "
                f"{timer['total_s']:9.3f}s total "
                f"{self_s:9.3f}s self"
            )

    spans = []
    def _walk(node, experiment):
        spans.append((_span_self_s(node), node["duration_s"],
                      node["name"], experiment))
        for child in node["children"]:
            _walk(child, experiment)
    for record in records:
        for root in (record.metrics or {}).get("spans", []):
            _walk(root, record.name)
    if spans:
        lines += ["", "== slowest spans (by exclusive time) =="]
        spans.sort(key=lambda item: (-item[0], item[2], item[3]))
        for self_s, duration, name, experiment in spans[:10]:
            lines.append(
                f"    {self_s:9.3f}s self  {duration:9.3f}s total  "
                f"{name}  ({experiment})"
            )

    totals = obs.merge_snapshots(record.metrics for record in records)
    if totals["counters"]:
        lines += ["", "== counters =="]
        for name, value in sorted(totals["counters"].items()):
            lines.append(f"    {name:<34} {value:g}")
    if totals["gauges"]:
        lines += ["", "== gauges =="]
        for name, value in sorted(totals["gauges"].items()):
            lines.append(f"    {name:<34} {value:g}")

    if driver:
        # The driver registry also absorbs every worker snapshot
        # (run_experiments merges them for run-wide totals), so report
        # only the driver-exclusive residue: counters beyond the
        # worker-merged totals, and timers/gauges whose names no
        # worker record produced (runner.prebuild_world, ...).
        counters = {
            name: value - totals["counters"].get(name, 0)
            for name, value in driver.get("counters", {}).items()
            if value - totals["counters"].get(name, 0)
        }
        timers = {
            name: timer
            for name, timer in driver.get("timers", {}).items()
            if name not in totals["timers"]
        }
        gauges = {
            name: value
            for name, value in driver.get("gauges", {}).items()
            if name not in totals["gauges"]
        }
        if counters or timers or gauges:
            lines += ["", "== driver process (World prebuild, cache) =="]
            for name, timer in sorted(
                timers.items(), key=lambda item: -item[1]["total_s"]
            )[:8]:
                self_s = timer.get("self_s", timer["total_s"])
                lines.append(
                    f"    {name:<34} {timer['count']:>4}x  "
                    f"{timer['total_s']:9.3f}s total "
                    f"{self_s:9.3f}s self"
                )
            for name, value in sorted(counters.items()):
                lines.append(f"    {name:<34} {value:g}")
            for name, value in sorted(gauges.items()):
                lines.append(f"    {name:<34} {value:g}  (gauge)")
    return "\n".join(lines) + "\n"


def _metrics_payload(records, scale, jobs: int, elapsed: float,
                     driver=None) -> Dict:
    """The ``--metrics-out`` JSON document."""
    return {
        "schema": "repro.obs/v1",
        "scale": scale.label,
        "jobs": jobs,
        "elapsed_s": round(elapsed, 3),
        "experiments": {
            record.name: {
                "status": record.status,
                "wall_time_s": round(record.wall_time_s, 3),
                "metrics": record.metrics,
            }
            for record in records
        },
        "totals": obs.merge_snapshots(record.metrics for record in records),
        "driver": driver,
    }


def _usable_out_path(flag: str, path: str, err, prog: str) -> bool:
    """Validate (and auto-create the parent of) an output file path.

    ``--metrics-out``/``--trace-out``/``--csv`` failures used to
    surface as a traceback *after* an otherwise-successful run; this
    checks the destination before any work is spent. A missing parent
    directory is created (matching ``write_chrome_trace``); one that
    cannot be created or written is a friendly one-line error.
    """
    parent = os.path.dirname(path) or "."
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        err.write(
            f"{prog}: cannot create directory for {flag} {path!r}: "
            f"{exc}\n"
        )
        return False
    if os.path.isdir(path):
        err.write(f"{prog}: {flag} {path!r} is a directory\n")
        return False
    if not os.access(parent, os.W_OK):
        err.write(
            f"{prog}: {flag} {path!r}: directory {parent!r} is not "
            f"writable\n"
        )
        return False
    return True


def _driver_resources(start: obs.ResourceSample) -> Dict:
    """A snapshot-shaped driver resource block for the ledger.

    Built from direct readings rather than the driver registry — the
    registry also absorbs every worker snapshot (run-wide totals), so
    only explicit bracketing isolates the driver process's own cost.
    """
    end = obs.sample_resources()
    counters: Dict[str, float] = {
        "resources.cpu_s": round(max(0.0, end.cpu_s - start.cpu_s), 3),
    }
    if end.degraded:
        counters["resources.degraded"] = 1
    return {
        "gauges": {
            "resources.rss_mb": round(end.rss_mb, 1),
            "resources.peak_rss_mb": round(end.peak_rss_mb, 1),
        },
        "counters": counters,
    }


def _ledger_for(ledger_dir: Optional[str]) -> Optional[obs.RunLedger]:
    """The ledger from ``--ledger-dir``, else ``$REPRO_LEDGER_DIR``."""
    if ledger_dir:
        return obs.RunLedger(ledger_dir)
    return obs.RunLedger.from_env()


def _resume_journal(
    names: Sequence[str], scale, resume: str, ledger, err
):
    """Resolve ``--resume REF`` into (journal, completed records).

    Returns ``(journal, completed)`` or ``(None, exit_code)`` after
    writing a friendly error: unknown run id, no journal dir, or a
    journal whose config (scale/seed/experiment set) does not match
    this invocation.
    """
    if ledger is None:
        err.write(
            "repro run: --resume needs a run journal — set "
            f"{obs.LEDGER_DIR_ENV} or pass --ledger-dir\n"
        )
        return None, 2
    try:
        journal = RunJournal.find(ledger.root, resume)
    except KeyError as exc:
        err.write(f"repro run: cannot resume: {exc.args[0]}\n")
        return None, 2
    expected = run_config_hash(
        scale.label, getattr(scale, "seed", None), names
    )
    if journal.config_hash != expected:
        header = journal.header
        err.write(
            f"repro run: cannot resume {journal.run_id}: it ran "
            f"scale={header.get('scale')} seed={header.get('seed')} "
            f"over {len(header.get('names', []))} experiment(s), but "
            f"this invocation is scale={scale.label} "
            f"seed={getattr(scale, 'seed', None)} over "
            f"{len(names)} — resume must replay the same run\n"
        )
        return None, 2
    completed = {
        name: RunRecord.from_dict(payload, resumed=True)
        for name, payload in journal.completed().items()
    }
    return journal, completed


def _run(
    names: Sequence[str], scale_label: str, out=None,
    seed: Optional[int] = None, jobs: int = 1,
    output_format: str = "text", err=None,
    profile: bool = False, metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None, ledger_dir: Optional[str] = None,
    timeout_s: Optional[float] = None, resume: Optional[str] = None,
    progress: bool = False,
) -> int:
    """Run ``names`` through the engine; returns a process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    scale = _scale_for(scale_label, seed)
    try:
        ChaosConfig.from_env()  # fail fast on a malformed chaos spec
    except ValueError as exc:
        err.write(f"repro run: bad {CHAOS_ENV} spec: {exc}\n")
        return 2
    for flag, path in (("--metrics-out", metrics_out),
                       ("--trace-out", trace_out)):
        if path and not _usable_out_path(flag, path, err, "repro run"):
            return 2

    ledger = _ledger_for(ledger_dir)
    journal: Optional[RunJournal] = None
    completed: Dict[str, RunRecord] = {}
    resumed_from: Optional[str] = None
    run_id: Optional[str] = None
    if resume is not None:
        journal, resolved = _resume_journal(names, scale, resume, ledger,
                                            err)
        if journal is None:
            return resolved
        completed = resolved
        resumed_from = journal.run_id
        run_id = obs.new_run_id()
        err.write(
            f"[resume {journal.run_id}: {len(completed)}/{len(names)} "
            f"experiment(s) journaled complete, "
            f"{len(names) - len(completed)} to run]\n"
        )
    elif ledger is not None:
        run_id = obs.new_run_id()
        try:
            journal = RunJournal.create(
                ledger.root, run_id, scale_label=scale.label,
                seed=getattr(scale, "seed", None), names=names,
                version=__version__,
            )
        except OSError as exc:
            err.write(
                f"repro run: cannot write run journal under "
                f"{ledger.root!r}: {exc}\n"
            )
            return 2
    to_run = [name for name in names if name not in completed]

    started = perf_counter()
    obs.reset_metrics()  # clean driver-side registry for this run
    start_sample = obs.sample_resources()
    reporter: Optional[obs.ProgressReporter] = None
    if progress:
        history = (
            ledger.previous({
                "run_id": run_id, "scale": scale.label,
                "seed": getattr(scale, "seed", None),
                "started_at": time(),
            })
            if ledger is not None else None
        )
        reporter = obs.ProgressReporter(
            len(names), err, jobs=jobs, label="run", history=history,
        )
        reporter.announce_keys(names)
        for name in completed:
            reporter.task_finished(name)
        reporter.start()

    def record_done(record: RunRecord) -> None:
        if journal is not None:
            journal.record(record)
        if reporter is not None:
            reporter.task_finished(record.name, record.ok)

    try:
        records = run_experiments(
            to_run, scale, jobs=jobs, cache=ArtifactCache.from_env(),
            timeout_s=timeout_s,
            on_record=(
                record_done
                if journal is not None or reporter is not None
                else None
            ),
            on_start=reporter.task_started if reporter is not None else None,
        )
    finally:
        if reporter is not None:
            reporter.close()
    driver_resources = _driver_resources(start_sample)
    elapsed = perf_counter() - started
    driver = obs.metrics().snapshot()
    records = stitch_records(names, completed, records)
    failed = [record for record in records if not record.ok]

    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            json.dump(_metrics_payload(records, scale, jobs, elapsed,
                                       driver=driver),
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
    if trace_out:
        obs.write_chrome_trace(
            records, trace_out,
            label=f"repro run (scale={scale.label}, jobs={jobs})",
        )

    ledger_line = ""
    if ledger is not None:
        entry = obs.build_entry(
            records, scale_label=scale.label,
            seed=getattr(scale, "seed", None), jobs=jobs,
            elapsed_s=elapsed, version=__version__,
            run_id=run_id, resumed_from=resumed_from,
            driver_metrics=driver_resources,
        )
        try:
            ledger.append(entry)
        except OSError as exc:
            # The results exist and were paid for — report them; the
            # run just isn't ledgered (warned, like an unwritable cache).
            err.write(
                f"repro run: WARNING: cannot append to ledger "
                f"{ledger.path!r}: {exc}\n"
            )
        else:
            ledger_line = f"[ledger: {entry['run_id']} -> {ledger.path}]\n"

    if output_format == "json":
        if ledger_line:  # keep stdout valid JSON
            err.write(ledger_line)
        if profile:  # keep stdout valid JSON; the report goes to stderr
            err.write(_profile_report(records, driver=driver))
        out.write(json.dumps({
            "scale": scale.label,
            "jobs": jobs,
            "elapsed_s": round(elapsed, 3),
            "failed": len(failed),
            "records": [record.to_dict() for record in records],
        }, indent=2) + "\n")
        return 1 if failed else 0

    for record in records:
        if record.ok:
            out.write(record.output + "\n")
        else:
            err.write(f"repro: experiment {record.name!r} failed:\n"
                      f"{record.error}\n")
    if profile:
        out.write(_profile_report(records, driver=driver))
    summary = (f"\n[{len(records)} experiment(s), scale={scale.label}, "
               f"{elapsed:.0f}s]\n")
    if failed:
        summary = (f"\n[{len(records)} experiment(s), "
                   f"{len(failed)} FAILED "
                   f"({', '.join(r.name for r in failed)}), "
                   f"scale={scale.label}, {elapsed:.0f}s]\n")
    out.write(summary)
    if ledger_line:
        out.write(ledger_line)
    return 1 if failed else 0


def _declared_targets() -> Dict[str, List[obs.PaperTarget]]:
    """Experiment name -> declared paper targets, non-empty only."""
    targets = {}
    for spec in all_specs():
        declared = spec.targets()
        if declared:
            targets[spec.name] = declared
    return targets


def _declared_budgets() -> Dict[str, List[obs.PerfBudget]]:
    """Experiment name -> declared perf budgets, non-empty only."""
    budgets = {}
    for spec in all_specs():
        declared = spec.budgets()
        if declared:
            budgets[spec.name] = declared
    return budgets


def _check(ledger_dir: Optional[str], out=None, err=None) -> int:
    """Score the latest ledger entry; nonzero exit on regression."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    ledger = _ledger_for(ledger_dir)
    if ledger is None:
        err.write("repro check: no ledger configured — set "
                  f"{obs.LEDGER_DIR_ENV} or pass --ledger-dir\n")
        return 2
    entry = ledger.latest()
    if entry is None:
        err.write(f"repro check: ledger {ledger.path} is empty — "
                  "run 'repro run' with the ledger enabled first\n")
        return 2
    previous = ledger.previous(entry)
    scores = obs.score_entry(entry, _declared_targets(), previous)

    out.write(
        f"repro check: run {entry.get('run_id')} "
        f"(scale={entry.get('scale')}, seed={entry.get('seed')}, "
        f"git={str(entry.get('git_sha'))[:12]})"
        + (f" vs previous {previous.get('run_id')}" if previous else
           " (no previous comparable run)")
        + "\n\n"
    )
    rows = []
    for score in scores:
        target = score.target
        observed = ("-" if score.observed is None
                    else f"{score.observed:g}")
        rows.append([
            score.experiment, target.key, f"{target.paper:g}",
            format_band(target.lo, target.hi), observed,
            "-" if score.previous is None else f"{score.previous:g}",
            score.status.upper(),
        ])
    if rows:
        out.write(render_table(
            ["experiment", "metric", "paper", "accepted", "observed",
             "previous", "status"], rows,
        ) + "\n")
    else:
        out.write("no declared targets matched the entry's "
                  "experiments\n")

    budget_scores = obs.score_perf_budgets(entry, _declared_budgets())
    if budget_scores:
        budget_rows = []
        for score in budget_scores:
            budget = score.budget
            observed = ("-" if score.observed is None
                        else f"{score.observed:g}")
            budget_rows.append([
                score.experiment, budget.key,
                format_band(budget.lo, budget.hi), observed,
                score.status.upper(),
            ])
        out.write("\nperformance budgets (wall/RSS/CPU bands):\n")
        out.write(render_table(
            ["experiment", "metric", "budget", "observed", "status"],
            budget_rows,
        ) + "\n")

    if previous is not None:
        perf_rows = []
        for name, exp in sorted(entry.get("experiments", {}).items()):
            prev_exp = previous.get("experiments", {}).get(name)
            prev_wall = prev_exp.get("wall_s") if prev_exp else None
            perf_rows.append([
                name, f"{exp.get('wall_s', 0):g}s",
                format_delta(exp.get("wall_s", 0.0), prev_wall, "s"),
            ])
        out.write("\nwall time vs previous (informational):\n")
        out.write(render_table(["experiment", "wall", "delta"],
                               perf_rows) + "\n")

    counts: Dict[str, int] = {}
    for score in scores:
        counts[score.status] = counts.get(score.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    regressed = obs.has_regression(scores)
    budget_regressed = obs.has_budget_regression(budget_scores)
    budget_summary = ""
    if budget_scores:
        blown = sum(1 for s in budget_scores if not s.ok)
        budget_summary = (
            f"; {len(budget_scores)} budget(s): "
            + (f"{blown} VIOLATED" if blown else "all within budget")
        )
    out.write(
        f"\n[{len(scores)} target(s): {summary or 'none'}"
        f"{budget_summary}]\n"
    )
    return 1 if regressed or budget_regressed else 0


def _compare(run_a: str, run_b: str, ledger_dir: Optional[str],
             out=None, err=None, fail_on_diff: bool = False) -> int:
    """Diff two ledger entries: wall time, counters, series digests.

    With ``fail_on_diff``, a digest mismatch in any shared experiment
    exits 1 — the CI gate that holds chaos-killed and resumed runs to
    the digests of a clean serial run.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    ledger = _ledger_for(ledger_dir)
    if ledger is None:
        err.write("repro compare: no ledger configured — set "
                  f"{obs.LEDGER_DIR_ENV} or pass --ledger-dir\n")
        return 2
    try:
        a, b = ledger.resolve(run_a), ledger.resolve(run_b)
    except KeyError as exc:
        err.write(f"repro compare: {exc.args[0]}\n")
        return 2

    def _entry_line(label: str, entry: Dict) -> str:
        line = (
            f"  {label}: scale={entry.get('scale')} "
            f"seed={entry.get('seed')} jobs={entry.get('jobs')} "
            f"wall={entry.get('wall_s')}s "
            f"git={str(entry.get('git_sha'))[:12]}"
        )
        if entry.get("sweep_id"):
            cell = entry.get("cell") or {}
            coords = ",".join(f"{k}={v}" for k, v in sorted(cell.items()))
            line += (
                f"\n     sweep={entry['sweep_id']} "
                f"cell={entry.get('cell_id')}"
                + (f" ({coords})" if coords else "")
            )
        if entry.get("resumed_from"):
            line += f" (resumed from {entry['resumed_from']})"
        return line + "\n"

    out.write(
        f"repro compare: {a.get('run_id')} (A) vs "
        f"{b.get('run_id')} (B)\n"
        + _entry_line("A", a) + _entry_line("B", b) + "\n"
    )

    def _recovery(exp_a: Optional[Dict], exp_b: Optional[Dict]) -> str:
        """Flag records that took a recovery path, per side.

        ``retried×N`` = the worker was killed/hung and the experiment
        survived via re-dispatch (N total attempts); ``resumed`` = the
        record was restored from a run journal, not recomputed. Either
        means the wall time is not comparable at face value.
        """
        notes = []
        for label, exp in (("A", exp_a), ("B", exp_b)):
            if not exp:
                continue
            side = []
            if exp.get("attempts", 1) > 1:
                side.append(f"retried×{exp['attempts']}")
            if exp.get("resumed"):
                side.append("resumed")
            if side:
                notes.append(f"{label}:{'+'.join(side)}")
        return " ".join(notes) or "-"

    exps_a, exps_b = a.get("experiments", {}), b.get("experiments", {})
    rows, mismatched = [], []
    for name in sorted(set(exps_a) | set(exps_b)):
        exp_a, exp_b = exps_a.get(name), exps_b.get(name)
        if exp_a is None or exp_b is None:
            rows.append([name, "-", "-", "-",
                         "only in B" if exp_a is None else "only in A",
                         _recovery(exp_a, exp_b)])
            continue
        digests_a = exp_a.get("series_digests", {})
        digests_b = exp_b.get("series_digests", {})
        same = digests_a == digests_b
        if not same:
            mismatched.append(name)
        rows.append([
            name, f"{exp_a.get('wall_s', 0):g}s",
            f"{exp_b.get('wall_s', 0):g}s",
            format_delta(exp_b.get("wall_s", 0.0),
                         exp_a.get("wall_s"), "s"),
            "same" if same else "DIFFERENT",
            _recovery(exp_a, exp_b),
        ])
    out.write(render_table(
        ["experiment", "wall A", "wall B", "delta", "series",
         "recovery"], rows,
    ) + "\n")

    counters_a = a.get("totals", {}).get("counters", {})
    counters_b = b.get("totals", {}).get("counters", {})
    delta_rows = []
    for name in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(name, 0), counters_b.get(name, 0)
        if va != vb:
            delta_rows.append([name, f"{va:g}", f"{vb:g}",
                               format_delta(vb, va)])
    if delta_rows:
        out.write("\ncounter deltas:\n")
        out.write(render_table(["counter", "A", "B", "delta"],
                               delta_rows) + "\n")

    resource_rows = []
    for name in sorted(set(exps_a) & set(exps_b)):
        exp_a, exp_b = exps_a[name], exps_b[name]
        if all(
            exp.get(key) is None
            for exp in (exp_a, exp_b)
            for key in ("peak_rss_mb", "cpu_s")
        ):
            continue

        def _fmt(value, unit: str) -> str:
            return "-" if value is None else f"{value:g}{unit}"

        resource_rows.append([
            name,
            _fmt(exp_a.get("peak_rss_mb"), ""),
            _fmt(exp_b.get("peak_rss_mb"), ""),
            format_delta(exp_b.get("peak_rss_mb", 0.0),
                         exp_a.get("peak_rss_mb")),
            _fmt(exp_a.get("cpu_s"), "s"),
            _fmt(exp_b.get("cpu_s"), "s"),
            format_delta(exp_b.get("cpu_s", 0.0), exp_a.get("cpu_s"),
                         "s"),
        ])
    if resource_rows:
        out.write("\nresources (peak RSS MB / CPU s):\n")
        out.write(render_table(
            ["experiment", "rss A", "rss B", "rss delta", "cpu A",
             "cpu B", "cpu delta"], resource_rows,
        ) + "\n")

    if mismatched:
        out.write(f"\n[{len(mismatched)} experiment(s) produced "
                  f"different series: {', '.join(mismatched)}]\n")
        return 1 if fail_on_diff else 0
    out.write("\n[all shared experiments produced identical "
              "series]\n")
    return 0


def _report(
    ledger_dir: Optional[str], perf: bool = False, out_dir: str = ".",
    out=None, err=None,
) -> int:
    """Emit ``BENCH_<git-sha>.json`` from the latest ledger entry.

    The bench-trajectory record: per-experiment wall time / peak RSS /
    CPU, the driver's resource block, and the perf-budget verdicts —
    everything CI needs to trend the harness's own cost across commits.
    One file per commit; re-running on the same commit overwrites.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if not perf:
        err.write("repro report: nothing to report — pass --perf\n")
        return 2
    ledger = _ledger_for(ledger_dir)
    if ledger is None:
        err.write("repro report: no ledger configured — set "
                  f"{obs.LEDGER_DIR_ENV} or pass --ledger-dir\n")
        return 2
    entry = ledger.latest()
    if entry is None:
        err.write(f"repro report: ledger {ledger.path} is empty — "
                  "run 'repro run' with the ledger enabled first\n")
        return 2

    budget_scores = obs.score_perf_budgets(entry, _declared_budgets())
    sha = entry.get("git_sha") or "unknown"
    payload = {
        "schema": "repro.bench/v1",
        "git_sha": sha,
        "run_id": entry.get("run_id"),
        "scale": entry.get("scale"),
        "seed": entry.get("seed"),
        "jobs": entry.get("jobs"),
        "version": entry.get("version"),
        "wall_s": entry.get("wall_s"),
        "experiments": {
            name: {
                "status": exp.get("status"),
                "wall_s": exp.get("wall_s"),
                "peak_rss_mb": exp.get("peak_rss_mb"),
                "cpu_s": exp.get("cpu_s"),
            }
            for name, exp in sorted(
                entry.get("experiments", {}).items()
            )
        },
        "resources": entry.get("resources"),
        "budgets": [
            {
                "experiment": score.experiment,
                "metric": score.budget.key,
                "lo": score.budget.lo,
                "hi": score.budget.hi,
                "observed": score.observed,
                "status": score.status,
            }
            for score in budget_scores
        ],
    }
    path = os.path.join(out_dir, f"BENCH_{str(sha)[:12]}.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        err.write(f"repro report: cannot write {path!r}: {exc}\n")
        return 2
    blown = sum(1 for score in budget_scores if not score.ok)
    out.write(
        f"[bench: run {entry.get('run_id')} "
        f"({len(payload['experiments'])} experiment(s), "
        f"{len(budget_scores)} budget(s)"
        + (f", {blown} VIOLATED" if blown else "")
        + f") -> {path}]\n"
    )
    return 0


def _sweep(
    spec_path: str, jobs: int = 1, csv_out: Optional[str] = None,
    ledger_dir: Optional[str] = None, resume: Optional[str] = None,
    out=None, err=None, resources: bool = False, progress: bool = False,
) -> int:
    """Run (or resume) a declarative sweep; returns an exit code.

    The tidy CSV goes to stdout by default (pipe it straight into a
    plotting tool) or to ``--csv FILE``; status lines go to stderr so
    stdout stays clean CSV either way.
    """
    from .sweep import SweepError, SweepSpec, SweepSpecError, run_sweep

    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        ChaosConfig.from_env()  # fail fast on a malformed chaos spec
    except ValueError as exc:
        err.write(f"repro sweep: bad {CHAOS_ENV} spec: {exc}\n")
        return 2
    try:
        spec = SweepSpec.load(spec_path)
    except SweepSpecError as exc:
        err.write(f"repro sweep: {exc}\n")
        return 2
    if csv_out and not _usable_out_path("--csv", csv_out, err,
                                        "repro sweep"):
        return 2

    ledger = _ledger_for(ledger_dir)
    if resume is not None and ledger is None:
        err.write(
            "repro sweep: --resume needs a sweep journal — set "
            f"{obs.LEDGER_DIR_ENV} or pass --ledger-dir\n"
        )
        return 2

    started = perf_counter()
    obs.reset_metrics()  # clean driver-side registry for this sweep
    start_sample = obs.sample_resources()
    reporter: Optional[obs.ProgressReporter] = None
    if progress:
        try:
            from .engine import experiment_names as _names

            n_exp = (len(_names())
                     if list(spec.experiments) == ["all"]
                     else len(spec.experiments))
            total = len(spec.cells()) * n_exp
        except Exception:
            total = 0
        reporter = obs.ProgressReporter(total, err, jobs=jobs,
                                        label="sweep")
        reporter.start()
    try:
        result = run_sweep(
            spec, jobs=jobs, cache=ArtifactCache.from_env(),
            ledger=ledger, resume=resume, version=__version__,
            on_progress=lambda message: err.write(f"[{message}]\n"),
            on_task_start=(reporter.task_started
                           if reporter is not None else None),
            on_task_done=(reporter.task_finished
                          if reporter is not None else None),
            driver_metrics=lambda: _driver_resources(start_sample),
        )
    except (SweepError, SweepSpecError) as exc:
        err.write(f"repro sweep: {exc}\n")
        return 2
    except OSError as exc:
        where = f" under {ledger.root!r}" if ledger is not None else ""
        err.write(
            f"repro sweep: cannot write sweep journal/ledger{where}: "
            f"{exc}\n"
        )
        return 2
    finally:
        if reporter is not None:
            reporter.close()
    elapsed = perf_counter() - started

    csv_text = result.to_csv(include_resources=resources)
    if csv_out:
        with open(csv_out, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    else:
        out.write(csv_text)

    failed = result.failed
    summary = (
        f"[sweep {result.sweep_id}: {len(result.cells)} cell(s) x "
        f"{len(result.experiments)} experiment(s), "
        f"{len(result.rows)} row(s)"
        + (f", {result.resumed_count} task(s) resumed"
           if result.resumed_count else "")
        + (f", {len(failed)} FAILED "
           f"({', '.join(sorted(r.name for r in failed))})"
           if failed else "")
        + f", {elapsed:.0f}s]\n"
    )
    err.write(summary)
    if csv_out:
        err.write(f"[csv: {len(result.rows)} row(s) -> {csv_out}]\n")
    if ledger is not None and result.entries:
        err.write(
            f"[ledger: {len(result.entries)} cell entr(ies) -> "
            f"{ledger.path}]\n"
        )
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        names = experiment_names()
        width = max(len(name) for name in names)
        for name in names:
            print(f"{name.ljust(width)}  {get_spec(name).description}")
        return 0
    if args.command == "run":
        names = experiment_names()
        if args.experiment != "all" and args.experiment not in names:
            print(
                f"repro: unknown experiment {args.experiment!r} — "
                f"'repro list' shows the {len(names)} available",
                file=sys.stderr,
            )
            return 2
        selected = names if args.experiment == "all" else [args.experiment]
        return _run(
            selected, args.scale, seed=args.seed, jobs=args.jobs,
            output_format=args.output_format, profile=args.profile,
            metrics_out=args.metrics_out, trace_out=args.trace_out,
            ledger_dir=args.ledger_dir, timeout_s=args.timeout_s,
            resume=args.resume, progress=args.progress,
        )
    if args.command == "check":
        return _check(args.ledger_dir)
    if args.command == "compare":
        return _compare(args.run_a, args.run_b, args.ledger_dir,
                        fail_on_diff=args.fail_on_diff)
    if args.command == "report":
        return _report(args.ledger_dir, perf=args.perf, out_dir=args.out)
    if args.command == "sweep":
        return _sweep(args.spec, jobs=args.jobs, csv_out=args.csv_out,
                      ledger_dir=args.ledger_dir, resume=args.resume,
                      resources=args.resources, progress=args.progress)
    if args.command == "export":
        from .experiments.export import export_all

        scale = _scale_for(args.scale, args.seed)
        world = World(scale, cache=ArtifactCache.from_env())
        written = export_all(world, args.out)
        for path in written:
            print(path)
        return 0
    return 2  # unreachable: argparse enforces the choices


if __name__ == "__main__":
    raise SystemExit(main())
