"""Observability: metrics, resources, history, fidelity, budgets, traces.

Six layers, lowest first:

* :mod:`.metrics` — process-local counters, gauges, and nested trace
  spans; snapshots are plain JSON and merge deterministically, so
  worker processes ship their metrics back to the parent and
  ``repro run --profile`` / ``--metrics-out`` report one coherent
  picture of a parallel run;
* :mod:`.resources` — RSS / peak RSS / CPU readings taken at span
  exits and around every experiment (driver and every pooled worker
  alike);
* :mod:`.history` — the run ledger: every run appends a manifest (git
  SHA, seed, scale, per-experiment status/wall time/series digests/
  peak RSS/CPU, merged metric totals) to
  ``$REPRO_LEDGER_DIR/ledger.jsonl``, making runs comparable after
  their processes are gone;
* :mod:`.fidelity` — paper-target scoring: experiments declare the
  values the paper reports with accepted bands; ``repro check`` scores
  the latest ledger entry pass/drift/regress against them and against
  the previous comparable run;
* :mod:`.budgets` — performance budgets: the same scoring discipline
  applied to the harness's own wall time and memory footprint
  (``PERF_BUDGETS`` declarations, enforced by ``repro check``);
* :mod:`.traceviz` — span trees rendered as Chrome trace-event JSON
  (``repro run --trace-out``), viewable in Perfetto; plus
  :mod:`.progress`, a live status line over the same telemetry.

This package deliberately imports nothing from the rest of ``repro``,
so any module — however low-level — can instrument itself without
creating an import cycle; ledger/fidelity/trace consume run records
duck-typed.
"""

from .budgets import (
    BudgetScore,
    PerfBudget,
    has_budget_regression,
    score_perf_budgets,
)
from .fidelity import (
    PaperTarget,
    TargetScore,
    has_regression,
    score_entry,
)
from .history import (
    LEDGER_DIR_ENV,
    RunLedger,
    build_entry,
    digest_series,
    git_sha,
    new_run_id,
)
from .metrics import (
    Metrics,
    SIZE_GAUGE_SUFFIX,
    gauge,
    incr,
    merge_snapshots,
    metrics,
    reset_metrics,
    span,
    using,
)
from .progress import ProgressReporter
from .resources import ResourceSample, annotate, sample_resources
from .traceviz import chrome_trace, write_chrome_trace

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
    "ResourceSample",
    "annotate",
    "sample_resources",
    "LEDGER_DIR_ENV",
    "RunLedger",
    "build_entry",
    "digest_series",
    "git_sha",
    "new_run_id",
    "PaperTarget",
    "TargetScore",
    "score_entry",
    "has_regression",
    "PerfBudget",
    "BudgetScore",
    "score_perf_budgets",
    "has_budget_regression",
    "ProgressReporter",
    "chrome_trace",
    "write_chrome_trace",
]
