"""Reference implementations the parity tests hold ``src/`` to.

``src/`` keeps one implementation per hot path: the frontier-batched
control plane, the vectorized evaluators, the batched convergence
probes, the bitmask timeline builders, the hash-indexed address space
and the segment-table mobility generator and readers. Their parity
oracles live here, written the plain way:

:mod:`.addressing`
    Covering prefixes by binary-trie walk, and the per-address
    ``prefix_ids`` loop over it.
:mod:`.routing`
    The per-destination dict-BFS Gao-Rexford oracle, and a duck-typed
    oracle over it that ``VantagePoint.fib_best`` ranks prefix by prefix.
:mod:`.evaluators`
    Per-event device, per-day and content update counts: loops over
    ``interdomain_displaced`` and ``ContentPortMapper.update_for_event``.
:mod:`.experiments`
    The per-event displacement loops of policy-sensitivity, fib-size and
    ablation-multihoming: a ``port_for`` replay per policy, a segment
    replay against each day's dominant address, and single-attachment
    and ``update_for_event`` replays of the multihomed workload.
:mod:`.convergence`
    Arrival times from BFS hop distances, and per-source, per-probe
    outage walks over ``ConvergenceSimulator.deliver`` and
    ``deliver_under_faults``.
:mod:`.content`
    The CDN and origin timeline builders that rebuilt an address set
    after every event, returning ``(hour, frozenset)`` change points;
    ``from_changes``, the ``AddrsMatrix`` built from such points one
    address at a time; and the timeline readers that return
    ``IPv4Address`` sets (``set_at``, ``events``, ``change_points``,
    ``union_all``).
:mod:`.mobility`
    The object simulator behind ``generate_workload``: each attach a
    ``NetworkLocation``, each stay a checked ``DaySegment``, each day a
    ``UserDay``, and the events as the consecutive segment pairs whose
    address changes. Also the object readers the segment-table
    reductions replaced: the table read back as ``UserDay`` records,
    per-day statistics by dict walk, and the segment-by-segment
    multihomed timeline builder with its event and set readers.

The whole-suite regression oracle is ``tests/golden/digests-small.json``,
checked by ``tests/test_golden_digests.py``.
"""
