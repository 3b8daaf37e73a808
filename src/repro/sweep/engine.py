"""Sweep execution: fan a grid through the task runner, resumably.

One sweep is one :func:`repro.engine.runner.run_tasks` call: every
(cell, experiment) pair becomes a :class:`~repro.engine.runner.RunTask`
keyed ``<cell id>/<experiment>``, so the quarantine scheduler
interleaves cells freely across workers while deadlines, retries, and
chaos strikes stay per task. Cells whose world parameters coincide
share artifact-cache entries (keys are content-addressed by explicit
parameters, never labels), and when the whole grid needs exactly one
world the runner builds it before the pool starts, as usual, and the
forked workers inherit it.

Crash safety reuses the run-journal machinery wholesale: a sweep
journals under ``journal-sweep-<id>.jsonl`` with task keys as names
and a config hash over the full grid, so ``repro sweep … --resume
<sweep-id|last>`` re-runs only the incomplete (cell, experiment)
pairs and stitches journaled records back in byte-identically.

Ledger integration is per *cell*: each cell appends one manifest
(scale = the cell's derived label, seed = the cell's seed) carrying
``sweep_id``/``cell_id``/``cell`` coordinates/``config_hash`` extras,
so ``repro compare`` and ``repro check`` work across cells unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..engine import (
    ArtifactCache,
    RunJournal,
    RunRecord,
    experiment_names,
    load_registry,
    run_config_hash,
)
from ..engine.runner import RunTask, run_tasks
from . import rows as rows_mod
from .spec import Cell, SweepSpec, SweepSpecError

__all__ = ["SweepError", "SweepResult", "run_sweep", "find_sweep_journal"]

#: Sweep ids (and their journal files) carry this prefix so ``--resume
#: last`` on a sweep never picks up a plain run's journal and vice
#: versa.
SWEEP_ID_PREFIX = "sweep-"


class SweepError(ValueError):
    """A sweep that cannot run; the message is CLI-presentable."""


@dataclass
class SweepResult:
    """Everything one sweep produced, for the CLI and tests."""

    sweep_id: str
    spec: SweepSpec
    cells: List[Cell]
    experiments: List[str]
    #: task key -> final record (journal-restored or freshly computed).
    records: Dict[str, RunRecord]
    rows: List[Dict[str, str]] = field(default_factory=list)
    #: per-cell ledger entries, grid order (empty without a ledger).
    entries: List[Dict[str, Any]] = field(default_factory=list)
    resumed_from: Optional[str] = None
    resumed_count: int = 0

    @property
    def failed(self) -> List[RunRecord]:
        return [r for r in self.records.values() if not r.ok]

    def to_csv(self, include_resources: bool = False) -> str:
        """The deterministic tidy CSV (see :mod:`repro.sweep.rows`).

        ``include_resources`` adds the ``resource:*`` measurement rows
        (peak RSS / CPU per cell and experiment); the default output
        stays byte-identical across serial/pooled/resumed runs.
        """
        return rows_mod.to_csv(
            self.spec.axis_names, self.rows,
            include_resources=include_resources,
        )


def _sweep_label(spec: SweepSpec) -> str:
    """The journal's scale label: identifies the grid, not one cell."""
    return f"sweep:{spec.name}"


def find_sweep_journal(root: str, ref: str) -> RunJournal:
    """Open a sweep journal by sweep id or ``"last"``.

    ``last`` resolves among *sweep* journals only — a sweep must never
    resume a plain run's journal. Raises :class:`KeyError` with the
    known sweep ids when nothing matches.
    """
    if ref in ("last", "latest", "-1"):
        known = [
            run_id for run_id in RunJournal.known_run_ids(root)
            if run_id.startswith(SWEEP_ID_PREFIX)
        ]
        if not known:
            raise KeyError(f"no sweep journals under {root!r}")
        ref = known[-1]
    elif not ref.startswith(SWEEP_ID_PREFIX):
        raise KeyError(
            f"{ref!r} is not a sweep id (sweep ids start with "
            f"{SWEEP_ID_PREFIX!r})"
        )
    return RunJournal.find(root, ref)


def _resolve_experiments(spec: SweepSpec) -> List[str]:
    """Spec experiment names validated against the registry."""
    load_registry()
    known = experiment_names()
    if list(spec.experiments) == ["all"]:
        return list(known)
    unknown = [name for name in spec.experiments if name not in known]
    if unknown:
        raise SweepError(
            f"unknown experiment(s) in spec: {', '.join(unknown)} — "
            f"'repro list' shows the {len(known)} available"
        )
    return list(spec.experiments)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger=None,
    *,
    resume: Optional[str] = None,
    version: str = "",
    on_progress=None,
    on_task_start=None,
    on_task_done=None,
    driver_metrics=None,
) -> SweepResult:
    """Execute (or resume) one sweep; returns a :class:`SweepResult`.

    ``ledger`` (a :class:`repro.obs.RunLedger` or None) enables the
    journal and the per-cell manifest entries; without it the sweep
    still runs but is neither resumable nor ledgered. ``resume`` names
    a previous sweep's journal (``"last"`` or a sweep id) — raises
    :class:`SweepError` on an unknown id or a grid mismatch, and
    :class:`OSError` if the journal/ledger directory is unusable.

    ``on_progress(message)`` receives human-oriented status lines
    (resume summary); the CSV and records stay deterministic.

    ``on_task_start(key)`` / ``on_task_done(key, ok)`` trace the task
    lifecycle by task key — the CLI's ``--progress`` line hooks in
    here; journal-resumed tasks fire ``on_task_done`` upfront.
    ``driver_metrics`` is a zero-arg callable returning the driver
    process's metrics snapshot, evaluated once per cell manifest so
    entries carry a ``resources.driver`` block like plain runs do.
    """
    experiments = _resolve_experiments(spec)
    cells = spec.cells()
    if not cells:
        raise SweepError("spec expands to an empty grid")
    keys = [
        (cell, name, f"{cell.cell_id}/{name}")
        for cell in cells
        for name in experiments
    ]
    label = _sweep_label(spec)
    expected_hash = run_config_hash(label, None, [k for _, _, k in keys])

    journal: Optional[RunJournal] = None
    completed: Dict[str, RunRecord] = {}
    resumed_from: Optional[str] = None
    if resume is not None:
        if ledger is None:
            raise SweepError(
                "--resume needs a sweep journal — configure a ledger "
                "directory first"
            )
        try:
            journal = find_sweep_journal(ledger.root, resume)
        except KeyError as exc:
            raise SweepError(f"cannot resume: {exc.args[0]}") from None
        if journal.config_hash != expected_hash:
            raise SweepError(
                f"cannot resume {journal.run_id}: its grid "
                f"(config {journal.config_hash}) does not match this "
                f"spec (config {expected_hash}) — resume must replay "
                f"the same spec"
            )
        completed = {
            key: RunRecord.from_dict(
                dict(payload, name=key.split("/", 1)[1]), resumed=True
            )
            for key, payload in journal.completed().items()
        }
        resumed_from = journal.run_id
        if on_progress is not None:
            on_progress(
                f"resume {journal.run_id}: {len(completed)}/{len(keys)} "
                f"task(s) journaled complete, "
                f"{len(keys) - len(completed)} to run"
            )

    sweep_id = SWEEP_ID_PREFIX + obs.new_run_id()
    if ledger is not None and journal is None:
        journal = RunJournal.create(
            ledger.root, sweep_id, scale_label=label, seed=None,
            names=[k for _, _, k in keys], version=version,
        )

    tasks = [
        RunTask(name=name, scale=cell.scale, key=key)
        for cell, name, key in keys
        if key not in completed
    ]
    if on_task_done is not None:
        for key in completed:
            on_task_done(key, True)

    def task_record(task: RunTask, record: RunRecord) -> None:
        # Journaled under the task key (not the bare experiment name)
        # so a resumed sweep can attribute each record to its cell.
        if journal is not None:
            journal.record(dataclasses.replace(record, name=task.task_key))
        if on_task_done is not None:
            on_task_done(task.task_key, record.ok)

    fresh = run_tasks(
        tasks, jobs=jobs, cache=cache, timeout_s=spec.timeout_s,
        on_record=(
            task_record
            if journal is not None or on_task_done is not None
            else None
        ),
        on_start=(
            (lambda task: on_task_start(task.task_key))
            if on_task_start is not None
            else None
        ),
    )
    records: Dict[str, RunRecord] = dict(completed)
    for task, record in zip(tasks, fresh):
        records[task.task_key] = record

    result = SweepResult(
        sweep_id=sweep_id,
        spec=spec,
        cells=cells,
        experiments=experiments,
        records=records,
        resumed_from=resumed_from,
        resumed_count=len(completed),
    )
    for cell, name, key in keys:
        result.rows.extend(rows_mod.rows_for(cell, name, records[key]))

    if ledger is not None:
        for cell in cells:
            cell_records = [
                records[f"{cell.cell_id}/{name}"] for name in experiments
            ]
            entry = obs.build_entry(
                cell_records,
                scale_label=cell.scale.label,
                seed=cell.scale.seed,
                jobs=jobs,
                elapsed_s=sum(r.wall_time_s for r in cell_records),
                version=version,
                command="sweep",
                run_id=f"{sweep_id}:{cell.cell_id}",
                resumed_from=resumed_from,
                driver_metrics=(
                    driver_metrics() if driver_metrics is not None
                    else None
                ),
                extra={
                    "sweep_id": sweep_id,
                    "cell_id": cell.cell_id,
                    "cell": {axis: value for axis, value in cell.axes},
                    "config_hash": run_config_hash(
                        cell.scale.label, cell.scale.seed, experiments
                    ),
                },
            )
            result.entries.append(ledger.append(entry))

    return result
