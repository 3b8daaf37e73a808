"""One benchmark child: run one pass of one workload, write what it saw.

Usage: ``python bench/child.py WORKLOAD SEED MODE RESULT_JSON``

Started by ``bench/run.py`` in a fresh process for every pass, so no
pass inherits another's warm state. CPU time and peak RSS are read
here, from this process and the descendants it has waited for; the
long-lived ``run.py`` never reads them, because its ``RUSAGE_CHILDREN``
holds a running maximum over every child it has ever reaped.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from workloads import WORKLOADS, Run


def usage() -> dict:
    """CPU seconds and peak RSS (MB) of this process and its reaped
    descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }


def main(argv) -> int:
    workload, seed, mode, result_path = argv
    run = Run(mode)
    WORKLOADS[workload](run, int(seed))
    payload = {
        "end_at": time.time(),
        "setup_at": run.setup_at,
        "units": run.units,
        **usage(),
    }
    if run.tracer is not None:
        payload["spans"] = run.tracer.spans()
        payload["counts"] = dict(run.tracer.counts)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
