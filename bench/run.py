"""Run the benchmark: end-to-end metrics, or a traced run for per-layer ones.

    python bench/run.py [--seed N] [--out FILE]          both workloads
    python bench/run.py --trace [--seed N] [--out FILE]  traced, per layer
    python bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Every pass of a workload runs in a fresh child process
(``bench/child.py``), one after another: a closed loop with one client
and one process. An untraced run repeats passes while another still
fits in ``--seconds`` (always at least one) and reports the median of
each metric over its passes. A traced run alternates untraced and
traced passes the same way and reports per-layer counts and self times
from the traced ones.

Outputs are checked against ``bench/golden.json``: every unit must
succeed and produce the series the golden file lists, with the golden
digests at the golden seed and the same digests in every pass at any
other seed. The last line printed for ``--workload`` is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every unit passed, and 2 when the checkout lacks
the ``repro`` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from tracing import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: One invocation of one workload must end inside 180 s.
RUN_DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_golden() -> dict:
    with open(BENCH / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env(work: Path) -> Dict[str, str]:
    """The environment every child gets: this checkout's sources, one
    BLAS thread, temporary files inside the checkout, no ``REPRO_*``
    settings leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(work)
    return env


class Spawner:
    """Starts children one at a time and cleans up after them."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def __call__(self, workload: str, seed: int, mode: str) -> Optional[dict]:
        """Run one pass; the child's result plus ``wall_s`` and ``busy_s``.

        ``wall_s`` runs from spawn to exit, ``busy_s`` from spawn to the
        end of the workload (before the child writes its result). None
        when the child died or ran past the deadline.
        """
        self.count += 1
        work = self.work / f"{workload}-{mode}-{self.count}"
        work.mkdir()
        result_path = work / "result.json"
        spawned_at = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), workload, str(seed),
             mode, str(result_path)],
            cwd=ROOT, env=child_env(work), stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"bench: {workload} ({mode}) ran past the "
                             f"deadline; killed\n")
        finally:
            # The whole session, in case anything in it forked.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        wall = time.perf_counter() - started
        if proc.returncode != 0 or not result_path.is_file():
            return None
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["wall_s"] = wall
        result["busy_s"] = result["end_at"] - spawned_at
        result["setup_s"] = result["setup_at"] - spawned_at
        return result


def check_units(golden: Dict[str, Dict[str, str]], golden_seed: int,
                seed: int, results: List[Optional[dict]]):
    """Score every pass against the golden units and against each other.

    Returns ``(attempted, failed, digests)``: a unit fails when it
    errored, is missing, produced other series than the golden file
    lists, or produced other digests than the golden ones (at the golden
    seed) or than the first pass (at any seed).
    """
    attempted = failed = 0
    reference: Dict[str, Dict[str, str]] = {}
    for result in results:
        units = (result or {}).get("units", {})
        for name, want in golden.items():
            attempted += 1
            got = units.get(name, {})
            digests = got.get("digests") if got.get("ok") else None
            ok = (
                digests is not None
                and set(digests) == set(want)
                and reference.setdefault(name, digests) == digests
                and (seed != golden_seed or digests == want)
            )
            if not ok:
                failed += 1
                sys.stderr.write(f"bench: unit {name!r} failed the "
                                 f"output check\n")
    return attempted, failed, reference


def repeat(seconds: float, modes, spawn) -> List[Optional[dict]]:
    """Passes in the order ``modes`` cycles through, while another round
    still fits in ``seconds`` (always one round); stops at a dead pass."""
    passes: List[Optional[dict]] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        for mode in modes:
            passes.append(spawn(mode))
            if passes[-1] is None:
                return passes
            longest = max(longest, passes[-1]["wall_s"])
        if time.monotonic() - started + longest * len(modes) > seconds:
            return passes


def measure(workload: str, seed: int, seconds: float, spawn) -> dict:
    """Untraced run: medians over the passes that fit in ``seconds``."""
    passes = repeat(seconds, ("run",),
                    lambda mode: spawn(workload, seed, mode))
    values = {}
    if None not in passes:
        values = {name: median([p[name] for p in passes])
                  for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    return {"passes": passes, "values": values}


def traced(workload: str, seed: int, seconds: float, spawn) -> dict:
    """Traced run: untraced and traced passes alternately; per-layer
    medians over the traced ones, overhead from both sides' medians."""
    passes = repeat(seconds, ("run", "trace"),
                    lambda mode: spawn(workload, seed, mode))
    if None in passes:
        return {"passes": passes, "values": {}}
    base, traces = passes[0::2], passes[1::2]
    per_pass = []
    for trace in traces:
        stats = layer_metrics(trace["spans"])
        values = dict(trace["counts"])
        for layer, s in stats.items():
            values[f"{layer}.calls"] = s["calls"]
            values[f"{layer}.self_s"] = s["self_s"]
        calls = values.get("core.content_evaluate.calls", 0)
        values["core.content_evaluate.useful_ratio"] = (
            values.get("core.content_evaluate.pairs", 0) / calls
            if calls else 0.0)
        values["trace.coverage"] = sum(
            s["self_s"] for s in stats.values()) / trace["busy_s"]
        per_pass.append(values)
    values = {name: median([v.get(name, 0) for v in per_pass])
              for name in per_pass[0]}
    values["trace.overhead_pct"] = 100.0 * (
        median([p["busy_s"] for p in traces])
        / median([p["busy_s"] for p in base]) - 1.0)
    return {"passes": passes, "values": values}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, golden: dict, spawn) -> dict:
    """One workload's checked result; ``spawn`` runs its children."""
    outcome = (traced if trace else measure)(workload, seed, seconds, spawn)
    attempted, failed, digests = check_units(
        golden["workloads"][workload], golden["seed"], seed,
        outcome["passes"])
    values = outcome["values"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        } if values else {},
        "passes": len(outcome["passes"]),
        "digests": digests,
    }


def report(workload: str, result: dict, out) -> None:
    verdict = "ok" if result["correct"] else "FAILED"
    out.write(f"{workload}: {verdict}, {result['passes']} passes, "
              f"{result['failed']} of {result['attempted']} units failed\n")
    for name, metric in result["metrics"].items():
        if metric["value"]:
            out.write(f"  {name:<44} {metric['value']:>14.6g} "
                      f"{metric['unit']}\n")


def parse_args(argv, spec: dict) -> argparse.Namespace:
    def non_negative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: both)")
    parser.add_argument("--seed", type=non_negative, default=2014,
                        help="seed of every generated input (default 2014)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measuring budget per workload: passes "
                        "repeat while another fits (default "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run printing per-layer metrics")
    parser.add_argument("--out", metavar="FILE",
                        help="also write results and digests as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # SIGTERM unwinds like ^C, so the running child's session is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no repro sources under {ROOT / 'src'}\n")
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    golden = load_golden()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    results = {}
    try:
        for workload in workloads:
            spawn = Spawner(work, time.monotonic() + RUN_DEADLINE_S)
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), spec,
                golden, spawn)
            report(workload, results[workload], sys.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "trace": bool(args.trace),
                       "workloads": results}, handle, indent=1)
            handle.write("\n")
    if args.workload:
        result = results[args.workload]
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
