"""Columnar workload core: batch event representation for the data plane.

The paper's headline numbers all reduce to replaying hundreds of
thousands of mobility/content events against dozens of vantage routers.
Objects are the right interface for *building* those workloads; they are
the wrong substrate for *replaying* them — a per-event Python loop over
dataclass instances dominates every ``repro run``. This package is the
shared columnar data plane: events live in numpy structured arrays, the
evaluators reduce over the event axis with precomputed per-router
lookup tables, and the object API survives as lazy views materialized
on demand.

Layout
------
:mod:`.columns`
    :data:`~.columns.SEGMENT_DTYPE` — the layout of a mobility
    workload's segment table, one row per stay — and
    :class:`DeviceEventColumns` — the device-mobility event table
    (time/user/from_as/to_as plus addresses and covering prefixes)
    gathered from it, round-trippable to the exact
    :class:`~repro.mobility.MobilityEvent` list.
:mod:`.addrs`
    :class:`AddrsMatrix` — one name's ``Addrs(d, t)`` timeline as a
    change-hour vector, a sorted int64 vector of address values and a
    boolean membership matrix over them — and :class:`AddrsColumns`,
    the address-value bit columns its builders emit rows over.

Parity contract
---------------
Vectorized evaluation is a pure re-expression of the per-event
definitions: the update counts, rates, and therefore the ledger series
digests are bit-identical to a per-event loop. Those loops live in
``tests/reference`` as the parity tests' oracle, and
``tests/golden/digests-small.json`` pins every experiment's series
digests.

numpy is load-bearing here (declared with a ``>=1.22`` floor in
``pyproject.toml``); importing this package with numpy missing or too
old fails loudly via :func:`require_numpy`.
"""

from __future__ import annotations

__all__ = [
    "MIN_NUMPY_VERSION",
    "require_numpy",
    "numpy_version_ok",
    "DeviceEventColumns",
    "EventColumns",
    "AddrsColumns",
    "AddrsMatrix",
]

#: Oldest numpy this package is tested against (structured-array and
#: ``np.unique(return_inverse=...)`` behaviour we rely on is stable
#: from here on).
MIN_NUMPY_VERSION = (1, 22)


def numpy_version_ok(version: str) -> bool:
    """True if ``version`` (e.g. ``"1.26.4"``) meets the floor.

    Unparseable version strings (dev builds, vendored forks) are
    accepted: the floor exists to catch genuinely ancient installs,
    not to reject exotic but current ones.
    """
    parts = []
    for token in version.split(".")[: len(MIN_NUMPY_VERSION)]:
        digits = ""
        for ch in token:
            if not ch.isdigit():
                break
            digits += ch
        if not digits:
            return True
        parts.append(int(digits))
    if len(parts) < len(MIN_NUMPY_VERSION):
        return True
    return tuple(parts) >= MIN_NUMPY_VERSION


def require_numpy():
    """Import and return numpy, failing loudly when unusable.

    Raises :class:`ImportError` with an actionable message when numpy
    is missing or older than :data:`MIN_NUMPY_VERSION` — the columnar
    data plane degrades into silent nonsense on prehistoric numpy, so
    it refuses to start instead.
    """
    floor = ".".join(str(p) for p in MIN_NUMPY_VERSION)
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - exercised via unit test
        raise ImportError(
            "repro.workload needs numpy (the columnar event store is "
            f"numpy-backed). Install it with: pip install 'numpy>={floor}'"
        ) from exc
    if not numpy_version_ok(getattr(numpy, "__version__", "0")):
        raise ImportError(
            f"repro.workload needs numpy>={floor}; found numpy "
            f"{numpy.__version__}. Upgrade with: pip install "
            f"'numpy>={floor}'"
        )
    return numpy


from .addrs import (  # noqa: E402  (needs require_numpy above)
    AddrsColumns,
    AddrsMatrix,
)
from .columns import DeviceEventColumns, EventColumns  # noqa: E402
