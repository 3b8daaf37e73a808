"""Array-native control plane: frontier-batched BGP over CSR arrays.

The textbook three-stage Gao-Rexford sweep walks Python dicts one
destination at a time, comparing whole path tuples; at paper scale
that BFS dominated every cold run. This module expresses the same
propagation as frontier-batched operations over integer arrays: the AS
graph lives in CSR form (:class:`CSRTopology`), each destination's
best-route table is parallel vectors — path type, path length, parent
(next AS toward the destination) and entry AS — and one sweep
(:func:`route_arrays`) routes a block of :data:`BLOCK` destinations
together, expanding the whole block's (destination, AS) frontier per
BFS level and picking every new parent with one sort-based group-min
over composite integer keys. :class:`FrontierEngine` keeps the tables
in one row-indexed store that bulk readers gather from. The dict
sweep and the one-destination array sweep survive as the parity
tests' references (``tests/reference/routing.py``).

Bit-identical parity with the dict sweep rests on four provable
reductions, three of them tiebreaks:

* **Stage 1 (customer routes up provider links).** All candidates at
  one BFS level have equal length, so the lexicographic path tiebreak
  compares ``(provider,) + path(child)`` across children — and those
  tuples differ first at the child ASN. The winning parent is simply
  the minimum child ASN in the frontier: a group-min.
* **Stage 2 (one peer hop).** An AS without a customer route takes the
  peer minimizing ``(held path length, peer ASN)`` — one composite-key
  group-min.
* **Stage 3 (provider routes down customer links).** Unit-weight
  multi-source Dijkstra is level-synchronous BFS on total path length;
  equal-length candidates from distinct parents differ first at the
  parent ASN, so the winner is the minimum parent ASN in the level.
  The dict sweep's loop-prevention test (``asn in path[1:]``) is provably
  redundant — every AS on a finalized path is already routed.
* **Leaf fold.** A leaf — an AS with a provider and neither customers
  nor peers — is never reached toward another destination in stage 1
  (it is nobody's provider) or stage 2 (it has no peers), and expands
  to no one in stage 3, so no other AS's route passes through it.
  Stage 3 therefore runs over the customer edges into non-leaves only,
  and each leaf then takes what stage 3 would have given it from its
  providers' final routes: the shortest, ties to the lowest provider
  ASN, one hop longer, with that provider as parent and the provider's
  entry AS (the leaf itself when the provider is the destination).

Full :class:`~repro.routing.bgp.BestPath` tuples are reconstructed by
following parent chains in path-length order, so the dict API and all
its consumers (iPlane, RIB dumps) are unchanged.

The module also vectorizes the §6.2.1 FIB derivation: a table-driven
CRC-32 reproduces :func:`~repro.routing.ranking.synthetic_med` over
whole prefix batches, and :func:`next_hop_table_batch` ranks all
(prefix, neighbor) candidates with one composite-integer argmin —
including the selective-announcement filter, which needs the *entry
AS* (the penultimate ASN on each path), carried as a fourth per-
destination vector.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..topology import ASTopology, Relationship
from ..workload import require_numpy

np = require_numpy()

__all__ = [
    "CSRTopology",
    "FrontierEngine",
    "RouteTableBatch",
    "crc32_u64",
    "synthetic_med_batch",
    "next_hop_table_batch",
]

#: Integer path-type codes (match PathType preference order: lower is
#: learned "earlier" in the three-stage sweep).
UNREACHED = -1
ORIGIN = 0
CUSTOMER = 1
PEER = 2
PROVIDER = 3

#: A route table's four per-destination vectors, by name, and their dtypes.
VECTORS = {"ptype": np.int8, "plen": np.int32, "parent": np.int32,
           "entry": np.int32}

#: Destinations one :func:`route_arrays` sweep routes together: enough
#: to spread numpy's per-call cost over many destinations, few enough
#: that a sweep's state (about 13 bytes per destination per AS, plus
#: its frontier expansions) stays a few MB at ~2k ASes.
BLOCK = 256

#: Leaf cells (destination row × leaf) one step of the leaf fold settles.
#: Its int64 buffers then hold 0.5 MB each and stay in cache: on the
#: benchmark's 2,124-AS Internet that halves the fold's time against
#: settling a whole :data:`BLOCK` of rows at once.
FOLD_CELLS = 1 << 16

#: Preference order of the relationship rule (mirrors ranking._REL_RANK).
_REL_RANK = {
    Relationship.CUSTOMER: 0,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 2,
}


def _expand(indptr, indices, states, n):
    """Neighbors of flat ``(destination, node)`` states.

    State ``row * n + node`` is ``node`` in destination row ``row``.
    Returns ``(sources, targets)``: one pair per CSR neighbor of each
    state's node, ``targets[i]`` being that neighbor's state in the
    same row as ``sources[i]``. States with no neighbors contribute
    nothing.
    """
    nodes = states % n
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    sources = np.repeat(states, counts)
    offsets = np.repeat(indptr[nodes] - (np.cumsum(counts) - counts), counts)
    neighbors = indices[offsets + np.arange(total)]
    return sources, sources - np.repeat(nodes, counts) + neighbors


def _group_min(targets, keys, bits):
    """Each distinct target once, ascending, with its smallest key.

    One sort of the composite ``target << bits | key`` (every key is
    below ``2 ** bits``) orders the candidates by target, then by key,
    so the first candidate of each target's run is its winner.
    """
    merged = np.sort((targets << bits) | keys)
    targets = merged >> bits
    first = np.ones(merged.size, dtype=bool)
    first[1:] = targets[1:] != targets[:-1]
    return targets[first], merged[first] & ((1 << bits) - 1)


class CSRTopology:
    """The AS graph's three relation sets as CSR integer arrays.

    Node ids are indices into the sorted ASN vector, so ascending index
    order *is* ascending ASN order — which is what lets every "lowest
    ASN" tiebreak become a plain integer minimum. Neighbor lists are
    sorted, matching the deterministic iteration order of the dict
    sweep.

    A *leaf* is an AS with a provider and neither customers nor peers
    (every stub the generator builds). :func:`route_arrays` leaves them
    out of its stage-3 BFS, which expands only ``stage3_indptr`` /
    ``stage3_indices`` (the customer edges into non-leaves), and settles
    them from their providers' columns: ``leaf_sources`` holds every
    node that is some leaf's provider, ascending, and row ``j`` of
    ``leaf_runs`` the position in it of each leaf's ``j``-th provider,
    or of its first when it has fewer than ``j + 1``.
    """

    def __init__(self, buffers: Dict[str, "np.ndarray"]):
        self.asns = buffers["asns"]
        self.prov_indptr = buffers["prov_indptr"]
        self.prov_indices = buffers["prov_indices"]
        self.cust_indptr = buffers["cust_indptr"]
        self.cust_indices = buffers["cust_indices"]
        self.peer_indptr = buffers["peer_indptr"]
        self.peer_indices = buffers["peer_indices"]
        self.n = len(self.asns)
        #: ASNs as plain Python ints, for tuple-building hot loops.
        self.asn_list: List[int] = [int(a) for a in self.asns]

        providers = np.diff(self.prov_indptr)
        self.leaf = ((providers > 0) & (np.diff(self.cust_indptr) == 0)
                     & (np.diff(self.peer_indptr) == 0))
        self.leaves = np.nonzero(self.leaf)[0]
        carries = ~self.leaf[self.cust_indices]
        self.stage3_indices = self.cust_indices[carries]
        self.stage3_indptr = np.concatenate(
            ([0], np.cumsum(carries)))[self.cust_indptr]
        counts = providers[self.leaves]
        width = int(counts.max()) if counts.size else 0
        slots = self.prov_indptr[self.leaves] + np.minimum(
            np.arange(width)[:, None], counts - 1)
        self.leaf_sources, runs = np.unique(
            self.prov_indices[slots].astype(np.int64).ravel(),
            return_inverse=True)
        self.leaf_runs = runs.reshape(slots.shape)

    @classmethod
    def from_topology(cls, topology: ASTopology) -> "CSRTopology":
        asns = np.array(sorted(topology.ases), dtype=np.int64)
        index = {int(a): i for i, a in enumerate(asns)}

        def csr(neighbor_sets):
            indptr = np.zeros(len(asns) + 1, dtype=np.int64)
            chunks = []
            for i, asn in enumerate(asns):
                nbrs = sorted(neighbor_sets(int(asn)))
                indptr[i + 1] = indptr[i] + len(nbrs)
                chunks.append(np.array([index[b] for b in nbrs],
                                       dtype=np.int32))
            indices = (np.concatenate(chunks) if chunks
                       else np.empty(0, dtype=np.int32))
            return indptr, indices

        ases = topology.ases
        prov_indptr, prov_indices = csr(lambda a: ases[a].providers)
        cust_indptr, cust_indices = csr(lambda a: ases[a].customers)
        peer_indptr, peer_indices = csr(lambda a: ases[a].peers)
        return cls({
            "asns": asns,
            "prov_indptr": prov_indptr, "prov_indices": prov_indices,
            "cust_indptr": cust_indptr, "cust_indices": cust_indices,
            "peer_indptr": peer_indptr, "peer_indices": peer_indices,
        })

    def indices_of(self, asns: Sequence[int]) -> "np.ndarray":
        """Node indices for a batch of ASNs (all must exist)."""
        values = np.asarray(asns, dtype=np.int64)
        idx = np.searchsorted(self.asns, values)
        if (idx >= self.n).any() or (self.asns[np.minimum(idx, self.n - 1)]
                                     != values).any():
            missing = values[(idx >= self.n)
                             | (self.asns[np.minimum(idx, self.n - 1)]
                                != values)]
            raise KeyError(f"unknown AS{int(missing[0])}")
        return idx.astype(np.int32)


def route_arrays(csr: CSRTopology, dest_idx):
    """Best-route tables for a block of destinations, one row each.

    Returns ``(ptype, plen, parent, entry)``, each shaped
    ``(len(dest_idx), csr.n)``: path-type code, path length in ASNs,
    the next node toward the destination, and the entry node (the
    penultimate ASN on the path, -1 at the origin) — everything the
    evaluators and FIB derivation gather through.

    The block's tables are flat ``(destination, node)`` state vectors.
    Every BFS level expands the whole block's frontier at once, and
    one :func:`_group_min` picks each newly routed state's parent.
    Rows never interact: a state's neighbors lie in its own row.
    Leaves (see :class:`CSRTopology`) stay out of the BFS, and
    :func:`_fold_leaves` settles their columns from their providers'.
    """
    n = csr.n
    dest_idx = np.asarray(dest_idx, dtype=np.int64)
    size = dest_idx.size * n
    ptype = np.full(size, UNREACHED, dtype=np.int8)
    plen = np.zeros(size, dtype=np.int32)
    parent = np.full(size, -1, dtype=np.int32)
    entry = np.full(size, -1, dtype=np.int32)
    # Bits of a state, and of a node id or a path length (both <= n).
    state_bits, node_bits = size.bit_length(), n.bit_length()

    def settle(states, via, code, length):
        # ``via`` is each state's parent state, in the same row. Every
        # parent is routed before its children, so the entry node is
        # the state's own node next to the origin and the parent's
        # entry node elsewhere.
        nodes = states % n
        ptype[states] = code
        plen[states] = length
        parent[states] = via - states + nodes
        entry[states] = np.where(ptype[via] == ORIGIN, nodes, entry[via])

    origins = np.arange(dest_idx.size, dtype=np.int64) * n + dest_idx
    ptype[origins] = ORIGIN
    plen[origins] = 1

    # Stage 1 — customer routes up provider links, one frontier per
    # BFS level; the winning parent is the minimum child node id
    # (within a row, the minimum child state).
    frontier = origins
    length = 1
    while frontier.size:
        sources, targets = _expand(csr.prov_indptr, csr.prov_indices,
                                   frontier, n)
        fresh = ptype[targets] == UNREACHED
        if not fresh.any():
            break
        length += 1
        frontier, via = _group_min(targets[fresh], sources[fresh],
                                   state_bits)
        settle(frontier, via, CUSTOMER, length)

    # Stage 2 — one peering hop off any origin/customer-route holder;
    # composite (held length, peer id) minimum. Peering is symmetric
    # (``add_peering`` records both ends), so expanding the holders'
    # peers finds every (unreached AS, holding peer) candidate.
    holders = np.nonzero(ptype != UNREACHED)[0]
    sources, targets = _expand(csr.peer_indptr, csr.peer_indices, holders, n)
    fresh = ptype[targets] == UNREACHED
    if fresh.any():
        sources = sources[fresh]
        keys = (plen[sources].astype(np.int64) << node_bits) | sources % n
        won, keys = _group_min(targets[fresh], keys, 2 * node_bits)
        via = won - won % n + (keys & ((1 << node_bits) - 1))
        settle(won, via, PEER, (keys >> node_bits) + 1)

    # Stage 3 — provider routes down customer links into non-leaves:
    # level-synchronous BFS on total path length (multi-source
    # Dijkstra, unit weights); the winning parent at a level is the
    # minimum parent node id.
    length, max_len = 1, int(plen.max())
    while length <= max_len:
        frontier = np.nonzero(plen == length)[0]
        sources, targets = _expand(csr.stage3_indptr, csr.stage3_indices,
                                   frontier, n)
        fresh = ptype[targets] == UNREACHED
        if fresh.any():
            won, via = _group_min(targets[fresh], sources[fresh], state_bits)
            settle(won, via, PROVIDER, length + 1)
            max_len = max(max_len, length + 1)
        length += 1

    shape = (dest_idx.size, n)
    tables = (ptype.reshape(shape), plen.reshape(shape),
              parent.reshape(shape), entry.reshape(shape))
    _fold_leaves(csr, *tables)
    # The fold also wrote the columns of the block's leaf destinations.
    leaf_origins = origins[csr.leaf[dest_idx]]
    ptype[leaf_origins] = ORIGIN
    plen[leaf_origins] = 1
    parent[leaf_origins] = entry[leaf_origins] = -1
    return tables


def _fold_leaves(csr: CSRTopology, ptype, plen, parent, entry) -> None:
    """Settle every leaf column of ``(rows, n)`` tables in place.

    No route passes through a leaf, so its providers' routes are final
    when stages 1–3 end, and stage 3 would have given it the shortest of
    them, ties to the lowest provider id. One integer per (row, leaf
    provider) orders the candidates that way — length, then provider
    id, then the entry node a leaf inherits, plus one so that the
    origin's -1 reads 0 — and its minimum over each leaf's provider
    run is the leaf's route. The three fields fit in an int64 while
    ``csr.n < 2 ** 21``. Rows are settled :data:`FOLD_CELLS` leaf
    cells at a time.
    """
    leaves = csr.leaves
    if not leaves.size:
        return
    bits = csr.n.bit_length()
    mask = (1 << bits) - 1
    sources = csr.leaf_sources
    unrouted = np.iinfo(np.int64).max
    step = max(1, FOLD_CELLS // leaves.size)
    for start in range(0, len(plen), step):
        rows = slice(start, start + step)
        held = plen[rows, sources].astype(np.int64)
        keys = ((held << 2 * bits) | (sources << bits)
                | (entry[rows, sources] + 1))
        keys[held == 0] = unrouted
        best = keys[:, csr.leaf_runs[0]]
        for run in csr.leaf_runs[1:]:
            np.minimum(best, keys[:, run], out=best)
        lost = best == unrouted
        ptype[rows, leaves] = np.where(lost, np.int8(UNREACHED),
                                       np.int8(PROVIDER))
        length = (best >> 2 * bits).astype(np.int32) + 1
        length[lost] = 0
        plen[rows, leaves] = length
        via = ((best >> bits) & mask).astype(np.int32)
        via[lost] = -1
        parent[rows, leaves] = via
        inherited = (best & mask).astype(np.int32) - 1
        # -1 where the provider is the origin: the leaf is its own entry.
        np.copyto(inherited, leaves, where=inherited < 0)
        inherited[lost] = -1
        entry[rows, leaves] = inherited


class RouteTableBatch:
    """Best-route tables for many destinations, stacked ``(D, N)``.

    Row ``d`` holds destination ``dests[d]``'s table over all ASes in
    node-index (= ascending ASN) order: ``ptype``/``plen``/``parent``/
    ``entry`` exactly as :func:`route_arrays` lays them out.
    """

    def __init__(self, csr: CSRTopology, dests, ptype, plen, parent, entry):
        self.csr = csr
        self.dests = dests
        self.ptype = ptype
        self.plen = plen
        self.parent = parent
        self.entry = entry

    def __len__(self) -> int:
        return len(self.dests)

    def row(self, dest_asn: int) -> int:
        """The row index of ``dest_asn`` (raises KeyError if absent)."""
        hit = np.nonzero(self.dests == dest_asn)[0]
        if hit.size == 0:
            raise KeyError(f"destination AS{dest_asn} not in batch")
        return int(hit[0])

    def materialize(self, dest_asn: int):
        """Row ``dest_asn`` as the ``{asn: BestPath}`` dict ``routes_to``
        returns."""
        d = self.row(dest_asn)
        return materialize_routes(
            self.csr, self.ptype[d], self.plen[d], self.parent[d],
        )


#: ptype code -> PathType, resolved lazily (bgp imports this module).
_PATH_TYPES = None


def _path_types():
    global _PATH_TYPES
    if _PATH_TYPES is None:
        from .bgp import PathType

        _PATH_TYPES = {
            ORIGIN: PathType.ORIGIN,
            CUSTOMER: PathType.CUSTOMER,
            PEER: PathType.PEER,
            PROVIDER: PathType.PROVIDER,
        }
    return _PATH_TYPES


def materialize_routes(csr: CSRTopology, ptype, plen, parent):
    """Rebuild a destination's ``{asn: BestPath}`` dict from arrays.

    Parent chains are followed in ascending path-length order so every
    path tuple extends an already-built parent tuple (paths share
    structure, so this is O(N) tuples, not O(N^2) ASNs).
    """
    from .bgp import BestPath

    types = _path_types()
    asn_list = csr.asn_list
    paths: List[Optional[Tuple[int, ...]]] = [None] * csr.n
    info: Dict[int, "BestPath"] = {}
    order = np.argsort(plen, kind="stable")
    routed = order[ptype[order] >= 0]
    for i in routed.tolist():
        p = parent[i]
        path = ((asn_list[i],) if p < 0
                else (asn_list[i],) + paths[p])  # type: ignore[operator]
        paths[i] = path
        info[asn_list[i]] = BestPath(path, types[int(ptype[i])])
    return info


class FrontierEngine:
    """Per-topology array-route state: CSR encoding + route-table store.

    One engine hangs off each :class:`~repro.routing.bgp.RoutingOracle`
    (outside its pickled state: the tables are a cache the warm
    artifact refills). The store keeps one row per destination
    computed or imported, in arrival order: the first
    :attr:`table_cache_size` rows of ``ptype``, ``plen``, ``parent``
    and ``entry`` are live, and :meth:`rows` finds a destination's row.
    Capacity at least doubles when it runs out, up to one row per AS,
    so memory follows the destinations computed. ``dirty`` counts
    tables computed since the last :meth:`export_tables`, mirroring
    the oracle's dict-cache dirtiness.
    """

    def __init__(self, topology: ASTopology):
        with obs.span("routing.batch.csr_build"):
            self.csr = CSRTopology.from_topology(topology)
        n = self.csr.n
        #: Store row of each node's table, -1 until it is stored.
        self._row = np.full(n, -1, dtype=np.int64)
        self._count = 0
        for name, dtype in VECTORS.items():
            setattr(self, name, np.empty((0, n), dtype=dtype))
        self.dirty = 0

    @property
    def table_cache_size(self) -> int:
        return self._count

    def _reserve(self, extra: int) -> None:
        """Room for ``extra`` more rows."""
        capacity = len(self.ptype)
        if self._count + extra <= capacity:
            return
        capacity = min(max(self._count + extra, 2 * capacity), self.csr.n)
        for name in VECTORS:
            old = getattr(self, name)
            grown = np.empty((capacity, self.csr.n), dtype=old.dtype)
            grown[: self._count] = old[: self._count]
            setattr(self, name, grown)

    def _append(self, nodes: "np.ndarray", tables) -> None:
        """Store ``tables`` (one row per node of ``nodes``) after the
        live rows; the caller has reserved room."""
        stop = self._count + len(nodes)
        for name, table in zip(VECTORS, tables):
            getattr(self, name)[self._count:stop] = table
        self._row[nodes] = np.arange(self._count, stop)
        self._count = stop

    def rows(self, dest_asns) -> "np.ndarray":
        """Store rows of ``dest_asns``, computing each missing table once.

        Missing destinations are swept :data:`BLOCK` at a time under
        the ``routing.batch.compute`` span; raises KeyError for an
        unknown AS.
        """
        nodes = self.csr.indices_of(dest_asns)
        missing = np.unique(nodes[self._row[nodes] < 0])
        if missing.size:
            with obs.span("routing.batch.compute"):
                self._reserve(missing.size)
                for start in range(0, missing.size, BLOCK):
                    block = missing[start:start + BLOCK]
                    self._append(block, route_arrays(self.csr, block))
            obs.incr("routing.batch.dests", int(missing.size))
            self.dirty += int(missing.size)
        return self._row[nodes]

    def batch(self, dests: Iterable[int]) -> RouteTableBatch:
        """The tables of ``dests``, in request order (computing any
        missing ones).

        When the requested rows are one ascending run of the store, as
        a cold request for every AS makes them, the batch holds
        read-only views of the store instead of a gathered copy.
        """
        dests = np.array([int(d) for d in dests], dtype=np.int64)
        rows = self.rows(dests)
        start = int(rows[0]) if rows.size else 0
        if (rows == np.arange(start, start + rows.size)).all():
            run = slice(start, start + rows.size)
            tables = [getattr(self, name)[run] for name in VECTORS]
            for table in tables:
                table.flags.writeable = False
        else:
            tables = [getattr(self, name)[rows] for name in VECTORS]
        return RouteTableBatch(self.csr, dests, *tables)

    # -- flat-buffer round trip (warm artifacts) ------------------------

    def export_tables(self) -> Optional[Dict[str, "np.ndarray"]]:
        """Every stored table as flat stacked buffers, destinations
        ascending (None if the store is empty)."""
        if not self._count:
            return None
        nodes = np.nonzero(self._row >= 0)[0]
        rows = self._row[nodes]
        return {"dests": self.csr.asns[nodes],
                **{name: getattr(self, name)[rows] for name in VECTORS}}

    def import_tables(self, buffers: Dict[str, "np.ndarray"]) -> None:
        """Copy previously exported tables into the store.

        Destinations already stored keep their rows. Raises ValueError,
        before storing anything, unless ``buffers`` holds ascending,
        known destinations with one table of the right type and length
        each.
        """
        missing = {"dests", *VECTORS} - set(buffers)
        if missing:
            raise ValueError(f"route tables lack {sorted(missing)}")
        dests = np.asarray(buffers["dests"])
        shape = (len(dests), self.csr.n)
        for name in VECTORS:
            table = buffers[name]
            if table.shape != shape or table.dtype != VECTORS[name]:
                raise ValueError(
                    f"route-table {name} is {table.dtype}{table.shape}, not "
                    f"{np.dtype(VECTORS[name])}{shape}: {len(dests)} "
                    f"destinations over {self.csr.n} ASes"
                )
        if (np.diff(dests) <= 0).any():
            raise ValueError("route-table destinations are not ascending")
        try:
            nodes = self.csr.indices_of(dests)
        except KeyError as exc:
            raise ValueError(f"route tables name an {exc.args[0]}") from None
        fresh = np.nonzero(self._row[nodes] < 0)[0]
        self._reserve(fresh.size)
        self._append(nodes[fresh], [buffers[name][fresh] for name in VECTORS])


# -- vectorized MED (table-driven CRC-32) -------------------------------

_CRC_TABLE: Optional["np.ndarray"] = None


def _crc_table() -> "np.ndarray":
    global _CRC_TABLE
    if _CRC_TABLE is None:
        table = np.empty(256, dtype=np.uint32)
        for i in range(256):
            c = i
            for _ in range(8):
                c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
            table[i] = c
        _CRC_TABLE = table
    return _CRC_TABLE


def crc32_u64(values) -> "np.ndarray":
    """``zlib.crc32(v.to_bytes(8, "big"))`` over a uint64 batch."""
    values = np.asarray(values, dtype=np.uint64)
    table = _crc_table()
    crc = np.full(values.shape, 0xFFFFFFFF, dtype=np.uint32)
    for shift in range(56, -8, -8):
        byte = ((values >> np.uint64(shift)) & np.uint64(0xFF)).astype(
            np.uint32
        )
        crc = (crc >> np.uint32(8)) ^ table[(crc ^ byte) & np.uint32(0xFF)]
    return crc ^ np.uint32(0xFFFFFFFF)


def synthetic_med_batch(
    next_hops, networks, lengths,
    modulus: int = 8, nonzero_fraction: float = 0.02,
) -> "np.ndarray":
    """:func:`~repro.routing.ranking.synthetic_med` over aligned batches."""
    seed = (
        (np.asarray(next_hops, dtype=np.uint64) << np.uint64(40))
        ^ (np.asarray(networks, dtype=np.uint64) << np.uint64(8))
        ^ np.asarray(lengths, dtype=np.uint64)
    )
    digest = crc32_u64(seed)
    frac = (digest % np.uint32(1000)).astype(np.float64) / 1000.0
    med = ((digest >> np.uint32(10)) % np.uint32(modulus)).astype(np.int64)
    return np.where(frac >= nonzero_fraction, 0, med)


# -- vectorized FIB derivation (next-hop LUT) ---------------------------

def rank_vectors(vantage) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """One vantage point's neighbor set as integer rank vectors.

    ``(nbr_asns, rel_ranks, is_provider)`` in ascending-ASN order —
    ascending index order therefore encodes the lowest-next-hop
    tiebreak. Cached on the vantage.
    """
    cached = getattr(vantage, "_rank_vectors", None)
    if cached is not None:
        return cached
    nbrs = sorted(vantage.neighbors)
    rels = [vantage.neighbors[n] for n in nbrs]
    vectors = (
        np.array(nbrs, dtype=np.int64),
        np.array([_REL_RANK[r] for r in rels], dtype=np.int64),
        np.array([r is Relationship.PROVIDER for r in rels], dtype=bool),
    )
    vantage._rank_vectors = vectors
    return vectors


def _origin(topology: ASTopology, prefix) -> int:
    """The AS a prefix's routes lead to, as ``candidate_routes`` finds
    it: the exact allocation's origin, else the origin of the longest
    allocation covering its network address (-1 when none does)."""
    origin = topology.origin_of_prefix(prefix)
    if origin is not None:
        return origin
    hit = topology.covering(prefix.network)
    return -1 if hit is None else hit[1]


def next_hop_table_batch(vantage, oracle, prefixes) -> "np.ndarray":
    """FIB next hops for a prefix batch — array path of
    :meth:`~repro.routing.bgp.VantagePoint.next_hop_table`.

    Bit-identical to ranking each prefix's candidate routes with
    :func:`~repro.routing.ranking.rank_key`: relationship class, path
    length, MED, and the lowest-next-hop tiebreak fold into one
    composite integer per (prefix, neighbor), minimized per prefix.
    """
    topo = oracle.topology
    count = len(prefixes)
    table = np.full(count, -1, dtype=np.int64)
    if count == 0:
        return table

    nets = np.fromiter((p.network for p in prefixes), dtype=np.int64,
                       count=count)
    lens = np.fromiter((p.length for p in prefixes), dtype=np.int64,
                       count=count)
    origins = np.fromiter(
        (_origin(topo, prefix) for prefix in prefixes), dtype=np.int64,
        count=count,
    )
    routable = np.nonzero(origins >= 0)[0]
    if routable.size == 0:
        return table

    uniq_origins, origin_row = np.unique(origins[routable],
                                         return_inverse=True)
    engine = oracle.frontier_engine()
    csr = engine.csr
    nbr_asns, rel_ranks, is_provider = rank_vectors(vantage)
    nbr_idx = csr.indices_of(nbr_asns)
    k = len(nbr_asns)

    # Per (prefix, neighbor) candidate state, gathered straight from
    # the engine's store: row of the prefix's origin, column of the
    # neighbor.
    grid = np.ix_(engine.rows(uniq_origins)[origin_row], nbr_idx)
    ptype = engine.ptype[grid]
    plen = engine.plen[grid].astype(np.int64)
    entry = engine.entry[grid]
    valid = (ptype >= 0) & (is_provider[None, :] | (ptype <= CUSTOMER))

    med = synthetic_med_batch(
        np.broadcast_to(nbr_asns[None, :], (routable.size, k)),
        np.broadcast_to(nets[routable][:, None], (routable.size, k)),
        np.broadcast_to(lens[routable][:, None], (routable.size, k)),
    )

    # Selective announcement (§3.2 prefix diversity), vectorized: the
    # chosen provider's node id must match the entry node, with
    # VantagePoint._apply_selective_announcement's strand fallback.
    # Each origin's provider list is its CSR run, already ASN-sorted.
    if vantage.selective_fraction > 0.0:
        node = csr.indices_of(uniq_origins)[origin_row]
        first = csr.prov_indptr[node]
        prov_count = csr.prov_indptr[node + 1] - first
        h = (nets[routable] * 1103515245 + lens[routable]) & 0x7FFFFFFF
        coin = (h % 1000) / 1000.0 < vantage.selective_fraction
        applies = coin & (prov_count >= 2) & (valid.sum(axis=1) > 1)
        chosen_idx = np.full(routable.size, -1, dtype=np.int64)
        chosen_idx[applies] = csr.prov_indices[
            first[applies] + (h[applies] >> 8) % prov_count[applies]
        ]
        keep = (plen < 2) | (entry == chosen_idx[:, None])
        filtered = valid & np.where(applies[:, None], keep, True)
        stranded = applies & ~filtered.any(axis=1) & valid.any(axis=1)
        valid = np.where(stranded[:, None], valid, filtered)

    # rank_key composite: (rel, path length, MED, neighbor ASN); the
    # neighbor axis is ASN-ascending so the index is the final tiebreak.
    plen_cap = np.int64(csr.n + 2)
    med_cap = np.int64(1024)
    key = ((rel_ranks[None, :] * plen_cap + plen) * med_cap + med) * k
    key = key + np.arange(k, dtype=np.int64)[None, :]
    big = np.int64(4) * plen_cap * med_cap * k + k
    key = np.where(valid, key, big)
    best_j = np.argmin(key, axis=1)
    has_route = valid.any(axis=1)
    table[routable] = np.where(has_route, nbr_asns[best_j], -1)
    return table
