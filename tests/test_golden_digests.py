"""Regression oracle: every experiment's series digests, pinned.

``tests/golden/digests-small.json`` holds the ledger series digests
(:attr:`repro.engine.RunRecord.series_digests`) of every registered
experiment at ``--scale small``, seed 2014. The run here is pooled, so
the World the workers inherit from the parent is held to the same
digests as an in-process run. The digests are the same on every supported Python:
float reductions add through :func:`repro.stats.sequential_sum`, not
builtin ``sum()``, whose float rounding changed in 3.12.

A change that moves a result on purpose regenerates the file with::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

import json
import os

from repro.engine import experiment_names, run_experiments
from repro.experiments import SMALL_SCALE
from repro.stats import sequential_sum

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "digests-small.json")


def suite_digests():
    """``{experiment: {series: digest}}`` of a pooled small-scale run."""
    records = run_experiments(experiment_names(), SMALL_SCALE, jobs=2)
    failed = [(r.name, r.status) for r in records if not r.ok]
    assert not failed, failed
    return {r.name: dict(sorted(r.series_digests.items())) for r in records}


def test_series_digests_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert (golden["scale"], golden["seed"]) == (SMALL_SCALE.label,
                                                 SMALL_SCALE.seed)
    assert suite_digests() == golden["experiments"]


def test_float_reductions_add_left_to_right():
    # Compensated summation (builtin sum() from Python 3.12) gives 1.0
    # and 1.0 here; the pinned digests need the plain left-to-right bits.
    assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
    assert sequential_sum([0.1] * 10) == 0.9999999999999999
    assert sequential_sum([]) == 0


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({"scale": SMALL_SCALE.label, "seed": SMALL_SCALE.seed,
                   "experiments": suite_digests()},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
