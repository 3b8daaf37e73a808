"""The run engine: execute registered experiments with isolation.

Given a list of experiment names and a scale, the engine runs each
experiment, captures its formatted output, and returns one structured
:class:`RunRecord` per experiment. Failures are isolated — one broken
experiment never aborts the rest — and recorded with a traceback.

With ``jobs > 1`` experiments are distributed over a
:class:`~concurrent.futures.ProcessPoolExecutor`. Each worker process
keeps one lazily-built :class:`~repro.experiments.context.World` per
scale, shared across the experiments it is handed. A single-scale run
builds that World in the parent before the pool starts, so forked
workers inherit it; otherwise a worker (when a cache is configured)
hydrates its world from the on-disk
:class:`~repro.engine.cache.ArtifactCache` instead of regenerating the
substrate. Every experiment is a deterministic pure function of
``(scale, seed)``, so records come back identical regardless of job
count or completion order — results are re-sorted into request order
before returning.

The pooled path is *resilient*: a parent-side watchdog enforces
per-experiment deadlines (``timeout_s``, overridden per experiment by
a module-level ``TIMEOUT_S``), detects hung or killed workers,
terminates the poisoned pool, and re-dispatches the affected
experiments under the engine's :class:`repro.faults.retry.RetryPolicy`
(:data:`~repro.engine.resilience.ENGINE_RETRY_POLICY` — capped
attempts, seeded-jitter backoff). An experiment that exhausts its
attempts comes back as a single ``STATUS_TIMEOUT`` or ``STATUS_ERROR``
record; the rest of the run is never aborted. Because deadline
enforcement needs a killable worker, a run with any deadline set is
routed through the pool even at ``jobs=1`` (records are identical
either way). The ``REPRO_CHAOS`` harness
(:mod:`repro.engine.chaos`) injects worker kills and hangs precisely
to prove these paths in CI.

The scheduling unit is a :class:`RunTask` — an ``(experiment, scale)``
pair with a unique key — so one pooled run can mix *cells* built at
different scales: the sweep engine (:mod:`repro.sweep`) fans an entire
parameter grid through this scheduler, and each worker keeps one
lazily-built World per scale it encounters. :func:`run_experiments`
remains the single-scale front door the CLI and benches use;
:func:`run_tasks` is the general form underneath it.
"""

from __future__ import annotations

import dataclasses
import random
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import monotonic, perf_counter, sleep, time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..faults.retry import RetryPolicy
from .cache import ArtifactCache
from .chaos import ChaosConfig
from .registry import get_spec
from .resilience import ENGINE_RETRY_POLICY

__all__ = [
    "RunRecord",
    "RunTask",
    "run_experiments",
    "run_tasks",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
]

STATUS_OK = "ok"
STATUS_ERROR = "error"
#: An experiment that exceeded its deadline on every allowed attempt.
STATUS_TIMEOUT = "timeout"

#: Watchdog poll interval: how often the parent checks deadlines while
#: waiting on worker futures.
_POLL_S = 0.05

#: Upper bound on the between-round backoff sleep, whatever the policy
#: ladder says — the engine retries to make progress, not to idle.
_MAX_BACKOFF_SLEEP_S = 5.0


@dataclass(frozen=True)
class RunRecord:
    """The structured outcome of one experiment run."""

    name: str
    status: str  # STATUS_OK, STATUS_ERROR, or STATUS_TIMEOUT
    wall_time_s: float
    output: str = ""  # formatted experiment text (ok runs)
    error: str = ""  # traceback (failed runs)
    #: Wall-clock time (``time.time()``) at which the experiment
    #: started, stamped in serial and worker paths alike — the trace
    #: exporter uses it to align spans from different processes on one
    #: timeline, and the run ledger persists it.
    started_at: float = 0.0
    #: :meth:`repro.obs.Metrics.snapshot` of everything the experiment
    #: recorded — counters, gauges, timers, and the span tree. Workers
    #: ship it back inside the (pickled) record; the parent merges it
    #: into its own registry, so serial and parallel runs expose the
    #: same per-experiment detail.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: ``{series name: digest}`` over the experiment's ``series()``
    #: output (:func:`repro.obs.digest_series`) — the ledger's
    #: "did the numbers change?" fingerprint.
    series_digests: Dict[str, str] = field(default_factory=dict)
    #: Observed paper-target values (``target_values()`` of modules
    #: declaring ``PAPER_TARGETS``), scored by ``repro check``.
    observed: Dict[str, float] = field(default_factory=dict)
    #: Dispatch attempts this record cost (1 = first try; >1 means the
    #: experiment survived worker crashes/hangs and was re-dispatched).
    attempts: int = 1
    #: True when the record was restored from a run journal by
    #: ``repro run --resume`` rather than computed by this process.
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def wall_s(self) -> float:
        """Ledger-schema alias for :attr:`wall_time_s`."""
        return self.wall_time_s

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready mapping (``--format json``, the run journal)."""
        return {
            "name": self.name,
            "status": self.status,
            "wall_time_s": round(self.wall_time_s, 3),
            "started_at": round(self.started_at, 3),
            "output": self.output,
            "error": self.error,
            "metrics": self.metrics,
            "series_digests": self.series_digests,
            "observed": self.observed,
            "attempts": self.attempts,
            "resumed": self.resumed,
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], *, resumed: bool = False
    ) -> "RunRecord":
        """Rebuild a record journaled by :meth:`to_dict`.

        ``resumed=True`` marks the record as journal-restored (set by
        ``repro run --resume``); digests, output, and observations ride
        through byte-identical.
        """
        return cls(
            name=payload["name"],
            status=payload.get("status", STATUS_ERROR),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            output=payload.get("output", ""),
            error=payload.get("error", ""),
            started_at=float(payload.get("started_at", 0.0)),
            metrics=payload.get("metrics") or {},
            series_digests=payload.get("series_digests") or {},
            observed=payload.get("observed") or {},
            attempts=int(payload.get("attempts", 1)),
            resumed=resumed or bool(payload.get("resumed", False)),
        )


@dataclass(frozen=True)
class RunTask:
    """One schedulable unit of work: an experiment at a scale.

    ``key`` must be unique within a :func:`run_tasks` call — a plain
    run uses the experiment name, a sweep uses ``<cell id>/<name>`` so
    the same experiment can appear once per grid cell. The key is how
    completion callbacks (and through them the run/sweep journals)
    attribute a record to its cell.
    """

    name: str
    scale: Any
    key: str = ""

    @property
    def task_key(self) -> str:
        return self.key or self.name


def _world_class():
    # Imported lazily: repro.experiments imports this package's
    # registry, so a module-level import here would be circular.
    from repro.experiments import World

    return World

#: Per-process world pool: (scale, cache root) -> World. Worker
#: processes handle several experiments each; sharing the lazily-built
#: world across them mirrors what the serial path does in one process.
#: Forked workers start with the entry :func:`_prebuild_world` made.
_WORLDS: Dict[Tuple[Any, Optional[str]], Any] = {}


def _world_for(scale, cache: Optional[ArtifactCache]):
    key = (scale, cache.root if cache is not None else None)
    if key not in _WORLDS:
        _WORLDS[key] = _world_class()(scale, cache=cache)
    return _WORLDS[key]


def _prebuild_world(scale, cache_root: Optional[str]):
    """Build ``scale``'s World here, before the pool forks.

    Fork-started workers inherit it in :data:`_WORLDS` copy-on-write,
    so none of them rebuilds the topology, the workload, or the routes
    to every AS. The World gets the cache a worker would build, so
    chaos cache strikes still reach its writes in workers. Returns the
    ``_WORLDS`` key when this call added the World (the caller drops it
    after the run), else None.

    Never raises: on any failure a World this call added is dropped
    and workers build their own, so a broken substrate fails only the
    experiments that need it.
    """
    cache = (
        ArtifactCache(cache_root, chaos=ChaosConfig.from_env())
        if cache_root else None
    )
    key = (scale, cache_root)
    added = key not in _WORLDS
    try:
        with obs.span("runner.prebuild_world"):
            world = _world_for(scale, cache)
            # Reading a lazy property builds it.
            world.workload, world.device_event_columns
            world.routeviews, world.ripe
            world.oracle.routes_to_many(sorted(world.topology.ases))
            world.save_warm_artifacts()
    except Exception:
        obs.incr("runner.prebuild_failed")
        if added:
            _WORLDS.pop(key, None)
        return None
    return key if added else None


def _execute(name: str, scale, cache: Optional[ArtifactCache]) -> RunRecord:
    """Run one experiment against a (possibly pooled) world.

    Everything the experiment records through :mod:`repro.obs` — cache
    hits, oracle computations, World build spans — lands in a fresh
    per-experiment collector whose snapshot rides on the returned
    record, in serial and worker paths alike. The resource-annotate
    bracket guarantees every record carries ``resources.cpu_s`` and the
    RSS gauges; every span inside carries its own CPU and RSS readings.
    """
    started = perf_counter()
    started_at = time()  # wall clock: aligns workers in the trace
    collector = obs.Metrics()
    try:
        with obs.using(collector), obs.annotate(collector):
            spec = get_spec(name)
            world = _world_for(scale, cache) if spec.needs_world else None
            with collector.span(f"experiment.{name}"):
                result = spec.execute(world)
            output = spec.format(result)
            digests = {
                series.name: obs.digest_series(
                    series.name, series.headers, series.rows
                )
                for series in spec.series(result)
            }
            observed = spec.observed(result)
            if world is not None:
                world.save_warm_artifacts()
        return RunRecord(
            name=name,
            status=STATUS_OK,
            wall_time_s=perf_counter() - started,
            output=output,
            started_at=started_at,
            metrics=collector.snapshot(),
            series_digests=digests,
            observed=observed,
        )
    except Exception:
        return RunRecord(
            name=name,
            status=STATUS_ERROR,
            wall_time_s=perf_counter() - started,
            error=traceback.format_exc(),
            started_at=started_at,
            metrics=collector.snapshot(),
        )


def _execute_in_worker(
    name: str,
    scale,
    cache_root: Optional[str],
    attempt: int = 0,
    timeout_s: Optional[float] = None,
) -> RunRecord:
    """Top-level (picklable) entry point for pool workers.

    ``attempt`` is the 0-based dispatch attempt for this experiment —
    the chaos harness keys its kill/hang decisions on it, so a strike
    on attempt ``k`` is an independent draw on attempt ``k+1`` and a
    retried experiment eventually gets through.
    """
    from repro.engine.registry import load_registry

    load_registry()
    chaos = ChaosConfig.from_env()
    if chaos is not None:
        chaos.strike(name, attempt, timeout_s)
    cache = ArtifactCache(cache_root, chaos=chaos) if cache_root else None
    return _execute(name, scale, cache)


def _lost_worker_record(name: str, attempts: int) -> RunRecord:
    """An error record for an experiment whose workers kept dying."""
    return RunRecord(
        name=name,
        status=STATUS_ERROR,
        wall_time_s=0.0,
        started_at=time(),
        error=(
            f"worker process died before returning a result for {name!r} "
            f"(OOM kill, segfault, or hard exit) on all {attempts} "
            f"dispatch attempt(s)"
        ),
        attempts=attempts,
    )


def _timeout_record(
    name: str, deadline_s: Optional[float], attempts: int
) -> RunRecord:
    """The ``STATUS_TIMEOUT`` record for a deadline-exhausted experiment."""
    return RunRecord(
        name=name,
        status=STATUS_TIMEOUT,
        wall_time_s=float(deadline_s or 0.0),
        started_at=time(),
        error=(
            f"experiment {name!r} exceeded its {deadline_s:g}s deadline "
            f"on all {attempts} dispatch attempt(s); worker(s) "
            f"terminated by the watchdog"
        ),
        attempts=attempts,
    )


def _pool_error_record(name: str, exc: BaseException) -> RunRecord:
    """An error record for a pool-level (non-experiment) failure."""
    return RunRecord(
        name=name,
        status=STATUS_ERROR,
        wall_time_s=0.0,
        started_at=time(),
        error=(
            f"worker pool failed to return a result for {name!r}: "
            + "".join(traceback.format_exception_only(type(exc), exc)).strip()
        ),
    )


def _kill_pool(pool: ProcessPoolExecutor, force: bool) -> None:
    """Tear a pool down; ``force`` SIGKILLs workers (hung or poisoned).

    ``shutdown(wait=True)`` on a pool with a worker stuck in an
    uninterruptible sleep would hang the parent forever — the watchdog
    path must kill the worker processes directly before shutting the
    executor's plumbing down.
    """
    if not force:
        pool.shutdown(wait=True)
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for proc in processes:
        try:
            proc.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.join(timeout=1.0)
        except Exception:
            pass


def _run_pooled(
    tasks: Sequence[RunTask],
    cache_root: Optional[str],
    jobs: int,
    deadlines: Sequence[Optional[float]],
    policy: RetryPolicy,
    on_record: Optional[Callable[[RunTask, RunRecord], None]],
    seed_token: Any = None,
    on_start: Optional[Callable[[RunTask], None]] = None,
) -> List[RunRecord]:
    """The resilient pooled scheduler: sliding window + watchdog.

    At most ``jobs`` tasks are in flight, each dispatched to a free
    worker the moment one is available, so an experiment's deadline
    clock starts when it is actually handed to a worker. ``deadlines``
    is indexed like ``tasks`` (the same experiment may carry different
    deadlines in different cells of a sweep).

    Clean work shares one pool (worker processes amortize World
    construction across experiments). Recovery is *quarantined*: once
    an experiment is charged with a failure — its worker died, or it
    blew its deadline — it is re-dispatched into its own single-worker
    pool after a seeded-jitter backoff, so a repeat offender only ever
    breaks itself. When the shared pool breaks, the executor cannot say
    which task killed it, so every in-flight task is charged once and
    quarantined: the true killer keeps dying alone and exhausts its
    ``policy.max_attempts``; the innocents complete on their isolated
    retry. When a deadline trips in the shared pool, the hung worker
    can only be reclaimed by killing the pool — overdue experiments
    are charged, in-flight bystanders are requeued uncharged.
    """
    n = len(tasks)
    records: List[Optional[RunRecord]] = [None] * n
    charged = [0] * n  # failures attributed to each task
    rng = random.Random(f"repro-runner:{seed_token}")
    shared_pending = deque(range(n))
    quarantine: List[Tuple[float, int]] = []  # (ready_at, index)
    #: future -> (index, absolute deadline, owning pool, dedicated?)
    in_flight: Dict[Any, Tuple[int, Optional[float], Any, bool]] = {}
    shared_pool: Optional[ProcessPoolExecutor] = None

    def make_pool(max_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=max_workers)

    def finalize(index: int, record: RunRecord) -> None:
        records[index] = record
        if on_record is not None:
            on_record(tasks[index], record)

    def charge(index: int, kind: str) -> None:
        """Attribute one failure; finalize or schedule a backoff retry."""
        charged[index] += 1
        obs.incr("runner.retry.attempts")
        if charged[index] >= policy.max_attempts:
            if kind == "timeout":
                obs.incr("runner.timeout")
                finalize(index, _timeout_record(
                    tasks[index].name, deadlines[index],
                    charged[index],
                ))
            else:
                obs.incr("runner.worker_retry_lost")
                finalize(index, _lost_worker_record(
                    tasks[index].name, charged[index]
                ))
            return
        delay = min(
            policy.timeout(charged[index] - 1, rng), _MAX_BACKOFF_SLEEP_S
        )
        obs.incr("runner.retry.backoff_s", round(delay, 3))
        quarantine.append((monotonic() + delay, index))

    def submit(pool: ProcessPoolExecutor, index: int, dedicated: bool):
        task = tasks[index]
        limit = deadlines[index]
        if on_start is not None and charged[index] == 0:
            # Announce first dispatch only — a quarantine retry is the
            # same unit of progress, not new work.
            on_start(task)
        future = pool.submit(
            _execute_in_worker, task.name, task.scale, cache_root,
            charged[index], limit,
        )
        in_flight[future] = (
            index,
            monotonic() + limit if limit is not None else None,
            pool,
            dedicated,
        )

    def drop_shared_pool() -> None:
        nonlocal shared_pool
        if shared_pool is not None:
            _kill_pool(shared_pool, force=True)
            shared_pool = None

    while shared_pending or quarantine or in_flight:
        # Dispatch quarantined retries first (recovery is the priority),
        # then fresh shared work, keeping at most ``jobs`` in flight.
        now = monotonic()
        while len(in_flight) < jobs and quarantine:
            ready = next(
                (i for i, (at, _) in enumerate(quarantine) if at <= now),
                None,
            )
            if ready is None:
                break
            _, index = quarantine.pop(ready)
            submit(make_pool(1), index, dedicated=True)
        while len(in_flight) < jobs and shared_pending:
            if shared_pool is None:
                shared_pool = make_pool(
                    min(jobs, len(shared_pending))
                )
            index = shared_pending.popleft()
            try:
                submit(shared_pool, index, dedicated=False)
            except BrokenProcessPool:
                # Broke between our last drain and this submit; the
                # dead pool's futures surface below, this task just
                # waits for the replacement pool.
                shared_pending.appendleft(index)
                break
        if not in_flight:
            sleep(_POLL_S)  # waiting out a backoff window
            continue

        done, _ = futures_wait(
            list(in_flight), timeout=_POLL_S, return_when=FIRST_COMPLETED
        )
        shared_broken = False
        for future in done:
            index, _, pool, dedicated = in_flight.pop(future)
            try:
                record = future.result()
            except BrokenProcessPool:
                obs.incr("runner.worker_lost")
                charge(index, "lost")
                if dedicated:
                    _kill_pool(pool, force=True)
                else:
                    shared_broken = True
            except Exception as exc:
                finalize(index, _pool_error_record(tasks[index].name, exc))
                if dedicated:
                    _kill_pool(pool, force=True)
            else:
                if charged[index]:
                    obs.incr("runner.retry.recovered")
                finalize(index, dataclasses.replace(
                    record, attempts=charged[index] + 1
                ))
                if dedicated:
                    pool.shutdown(wait=False)
        if shared_broken:
            # Every task in the shared pool died with it; none can be
            # told apart from the killer, so all are charged once and
            # will retry in quarantine.
            for future in [
                f for f, (_, _, _, dedicated) in in_flight.items()
                if not dedicated
            ]:
                index, _, _, _ = in_flight.pop(future)
                obs.incr("runner.worker_lost")
                charge(index, "lost")
            drop_shared_pool()

        now = monotonic()
        overdue = [
            future
            for future, (_, deadline, _, _) in in_flight.items()
            if deadline is not None and now > deadline
        ]
        if overdue:
            shared_overdue = False
            for future in overdue:
                index, _, pool, dedicated = in_flight.pop(future)
                obs.incr("runner.deadline_exceeded")
                charge(index, "timeout")
                if dedicated:
                    _kill_pool(pool, force=True)
                else:
                    shared_overdue = True
            if shared_overdue:
                # Reclaiming a hung shared worker means killing the
                # shared pool; bystanders are requeued uncharged.
                for future in [
                    f for f, (_, _, _, dedicated) in in_flight.items()
                    if not dedicated
                ]:
                    index, _, _, _ = in_flight.pop(future)
                    shared_pending.append(index)
                drop_shared_pool()

    if shared_pool is not None:
        shared_pool.shutdown(wait=True)
    assert all(record is not None for record in records)
    return records  # type: ignore[return-value]


def run_tasks(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    *,
    timeout_s: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    on_record: Optional[Callable[[RunTask, RunRecord], None]] = None,
    on_start: Optional[Callable[[RunTask], None]] = None,
) -> List[RunRecord]:
    """Run ``tasks``; one :class:`RunRecord` each, in task order.

    The general form of :func:`run_experiments`: every task carries
    its own scale, so a single pooled run can span the cells of a
    parameter sweep. Task keys must be unique — they are how
    ``on_record`` (and the journals built on it) attribute records.

    ``jobs > 1`` fans the tasks out over that many worker processes;
    ``cache`` (an :class:`ArtifactCache`) lets workers share the
    expensive substrate through the filesystem instead of each
    rebuilding it — cells with identical world parameters share cache
    entries, so repeated or resumed sweeps rebuild nothing.

    ``timeout_s`` is the per-task soft deadline; an experiment
    module's ``TIMEOUT_S`` overrides it for that experiment. Deadline
    enforcement needs a killable worker, so any run with a deadline is
    routed through the pool (even at ``jobs=1``) — experiments are
    pure functions of ``(scale, seed)``, so records are identical.

    Failure isolation is per task even when a worker process *dies*
    (OOM kill, segfault, hard ``os._exit``) or *hangs*: the watchdog
    terminates the poisoned pool and re-dispatches the affected tasks
    under ``retry_policy`` (default
    :data:`~repro.engine.resilience.ENGINE_RETRY_POLICY`) with capped
    attempts and seeded-jitter backoff. Only a task that fails every
    attempt comes back ``STATUS_ERROR`` (kept dying) or
    ``STATUS_TIMEOUT`` (kept hanging).

    ``on_record`` is invoked with ``(task, record)`` the moment each
    record is final — the run and sweep journals hook in here, making
    interrupted runs resumable. ``on_start`` is invoked with the task
    when it is first dispatched (the live progress line hooks in here);
    both callbacks run in the parent and must not raise.

    When every world-needing task shares one scale, the World is built
    once in this process before the pool starts, and fork-started
    workers inherit it. A multi-scale task set skips that prebuild, as
    does a failed one; workers then hydrate each cell's World from the
    artifact cache instead.

    Each returned record carries the :mod:`repro.obs` snapshot of its
    own run; the snapshots are also merged into this process's current
    metrics registry so callers see run-wide totals.
    """
    keys = [task.task_key for task in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("run_tasks requires unique task keys")
    deadlines: List[Optional[float]] = []
    for task in tasks:
        spec = get_spec(task.name)  # fail fast on unknown names
        declared = spec.timeout_s()  # fail fast on bad TIMEOUT_S too
        deadlines.append(declared if declared is not None else timeout_s)
    policy = retry_policy if retry_policy is not None else ENGINE_RETRY_POLICY
    any_deadline = any(limit is not None for limit in deadlines)
    if tasks and ((jobs > 1 and len(tasks) > 1) or any_deadline):
        cache_root = cache.root if cache is not None else None
        # A single-scale run builds its World once, here; a sweep that
        # mixes scales lets workers hydrate each cell's World from the
        # artifact cache instead.
        world_scales = {
            task.scale for task in tasks
            if get_spec(task.name).needs_world
        }
        prebuilt = (
            _prebuild_world(next(iter(world_scales)), cache_root)
            if len(world_scales) == 1
            else None
        )
        seed_token = sorted(
            {getattr(task.scale, "seed", None) for task in tasks},
            key=repr,
        )
        try:
            records: List[RunRecord] = _run_pooled(
                tasks, cache_root, max(1, jobs), deadlines, policy,
                on_record, seed_token=seed_token, on_start=on_start,
            )
        finally:
            if prebuilt is not None:
                _WORLDS.pop(prebuilt, None)
    else:
        records = []
        for task in tasks:
            if on_start is not None:
                on_start(task)
            record = _execute(task.name, task.scale, cache)
            if on_record is not None:
                on_record(task, record)
            records.append(record)
    parent = obs.metrics()
    for record in records:
        parent.merge(record.metrics)
    return list(records)


def run_experiments(
    names: Sequence[str],
    scale,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    *,
    timeout_s: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    on_record: Optional[Callable[[RunRecord], None]] = None,
    on_start: Optional[Callable[[str], None]] = None,
) -> List[RunRecord]:
    """Run ``names`` at one ``scale``; one :class:`RunRecord` each, in order.

    The single-scale front door over :func:`run_tasks` — semantics
    (isolation, deadlines, retries, the inherited World, metrics
    merge) are identical; ``on_record`` here receives just the record
    and ``on_start`` just the experiment name.
    """
    tasks = [RunTask(name=name, scale=scale, key=name) for name in names]
    task_callback = (
        (lambda task, record: on_record(record))
        if on_record is not None
        else None
    )
    start_callback = (
        (lambda task: on_start(task.name))
        if on_start is not None
        else None
    )
    return run_tasks(
        tasks, jobs=jobs, cache=cache, timeout_s=timeout_s,
        retry_policy=retry_policy, on_record=task_callback,
        on_start=start_callback,
    )
