"""Shared-memory World fan-out for pooled runs.

Before PR 7, every ``--jobs N`` worker rebuilt (or unpickled from the
artifact cache) its own copy of the expensive World substrate — the
event table, the AS topology, and the routes the oracle had already
computed. This module exports those pieces *once*, in the parent, as
flat numpy buffers inside a single :mod:`multiprocessing.shared_memory`
segment; workers attach via the pool initializer and construct
zero-copy views, so N workers share one physical copy and spawn without
deserializing a World.

What rides in the segment (see :func:`export_world`):

* the device event table (the structured
  :class:`~repro.workload.DeviceEventColumns` array) and its user list;
* the CSR topology encoding
  (:class:`~repro.routing.frontier.CSRTopology` buffers);
* the full per-destination best-route tables of the array control
  plane (every AS, so worker route lookups are pure gathers);
* per-vantage rank vectors and next-hop LUTs over all allocated
  prefixes, keyed by packed ``(network, length)`` for binary search.

Lifecycle discipline — the part chaos mode exists to prove:

* The parent tracks every segment it creates in a module registry and
  reports it as the ``shm.segments.open`` gauge.
* :func:`cleanup` unlinks on *all* exit paths (the runner wraps its
  pooled loop in ``try/finally``), including after SIGKILLed workers —
  worker death releases its mappings, so the parent's unlink is always
  sufficient. Anything still registered after cleanup counts as
  ``shm.leaked`` (and is force-unlinked anyway).
* Workers attaching in CPython < 3.13 must unregister the segment from
  their ``resource_tracker``: the tracker would otherwise unlink the
  segment when the *first* worker exits (bpo-39959), yanking it out
  from under its siblings.

The attach initializer never raises: a worker that cannot attach (or
whose manifest does not match its World identity) silently falls back
to the cache/rebuild path — shared memory is an accelerator, not a
correctness dependency: the golden-digest test runs the suite pooled
and holds it to the same digests as an in-process run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..workload import require_numpy

np = require_numpy()

__all__ = [
    "WorldManifest",
    "export_world",
    "attach_shared_world",
    "attached",
    "cleanup",
    "open_segments",
    "attached_event_columns",
    "attached_csr_buffers",
    "attached_route_tables",
    "attached_next_hops",
]


class WorldManifest:
    """Picklable description of one exported World segment.

    Carries everything a worker needs to rebuild views: the segment
    name, per-buffer layout (dtype description, shape, byte offset),
    and the identity of the World the buffers were derived from (scale
    + topology parameters), so a worker never consumes buffers built
    for a different substrate.
    """

    def __init__(
        self,
        segment: str,
        buffers: List[Dict[str, Any]],
        identity: Dict[str, Any],
        meta: Dict[str, Any],
    ):
        self.segment = segment
        self.buffers = buffers
        self.identity = identity
        self.meta = meta


class _Attached:
    """A worker's live view of the parent's segment."""

    def __init__(self, manifest: WorldManifest, shm) -> None:
        self.manifest = manifest
        self.shm = shm
        # The numpy views below pin the mmap for the worker's whole
        # life; SharedMemory.__del__ would raise BufferError trying to
        # close it at interpreter shutdown. The process's exit releases
        # the mapping anyway — make close a no-op on this handle.
        shm.close = lambda: None
        self.views: Dict[str, Any] = {}
        base = np.frombuffer(shm.buf, dtype=np.uint8)
        for spec in manifest.buffers:
            from .cache import _decode_dtype

            dtype = _decode_dtype(spec["dtype"])
            view = base[spec["offset"]: spec["offset"] + spec["nbytes"]]
            self.views[spec["name"]] = view.view(dtype).reshape(spec["shape"])
        # Sorted packed prefix keys for the next-hop LUT binary search.
        self._prefix_keys = self.views.get("prefix_keys")


#: Segments created by THIS process (the parent): name -> SharedMemory.
_OPEN_SEGMENTS: Dict[str, Any] = {}

#: The segment THIS process (a worker) attached to, if any.
_ATTACHED: Optional[_Attached] = None


def open_segments() -> int:
    """How many segments this process currently owns (parent side)."""
    return len(_OPEN_SEGMENTS)


def _pack_prefix(network: int, length: int) -> int:
    """One sortable int64 key per prefix (length < 64 by IPv4)."""
    return (network << 6) | length


def _world_identity(scale) -> Dict[str, Any]:
    """What makes two Worlds substrate-identical (scale + topo params)."""
    from ..experiments.context import World

    return {
        "label": scale.label,
        "num_users": scale.num_users,
        "device_days": scale.device_days,
        "content_days": scale.content_days,
        "num_popular_domains": scale.num_popular_domains,
        "seed": scale.seed,
        "topology": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in World._topology_params().items()
        },
    }


def export_world(scale, cache=None) -> Optional[WorldManifest]:
    """Build the World once and export its hot substrate to a segment.

    Returns the manifest to hand to :func:`attach_shared_world` via the
    pool initializer, or None when export is impossible (no shared
    memory support, any build failure) — callers treat None as
    "workers go through the cache as before".
    """
    try:
        from multiprocessing import shared_memory

        from ..experiments.context import World
        from ..routing.frontier import rank_vectors

        with obs.span("shm.export"):
            world = World(scale, cache=cache)
            arrays: Dict[str, Any] = {}
            meta: Dict[str, Any] = {}

            columns = world.device_event_columns
            arrays["event_table"] = columns.table
            meta["users"] = list(columns.users)
            meta["layout"] = columns.LAYOUT_VERSION

            oracle = world.oracle
            engine = oracle.frontier_engine()
            for name, buf in engine.csr.to_buffers().items():
                arrays[f"csr.{name}"] = buf

            # Full route tables: every AS is a possible destination, so
            # worker-side routes_to_many never computes — pure gathers.
            engine.batch(engine.csr.asn_list)
            tables = oracle.export_route_tables()
            for name, buf in tables.items():
                arrays[f"routes.{name}"] = buf

            prefixes = [p for p, _origin in
                        world.topology.all_prefixes()]
            order = sorted(
                range(len(prefixes)),
                key=lambda i: _pack_prefix(
                    prefixes[i].network, prefixes[i].length
                ),
            )
            arrays["prefix_keys"] = np.array(
                [_pack_prefix(prefixes[i].network, prefixes[i].length)
                 for i in order],
                dtype=np.int64,
            )
            sorted_prefixes = [prefixes[i] for i in order]
            vantages = list(world.routeviews) + list(world.ripe)
            meta["vantages"] = [v.name for v in vantages]
            for vantage in vantages:
                asns, rels, prov = rank_vectors(vantage)
                arrays[f"rank.{vantage.name}.asns"] = asns
                arrays[f"rank.{vantage.name}.rels"] = rels
                arrays[f"rank.{vantage.name}.prov"] = prov
                arrays[f"lut.{vantage.name}"] = vantage.next_hop_table(
                    oracle, sorted_prefixes
                )

            specs: List[Dict[str, Any]] = []
            offset = 0
            blobs: List[bytes] = []
            from .cache import _encode_dtype

            for name in sorted(arrays):
                buf = np.ascontiguousarray(arrays[name])
                raw = buf.tobytes()
                specs.append({
                    "name": name,
                    "dtype": _encode_dtype(buf.dtype),
                    "shape": list(buf.shape),
                    "offset": offset,
                    "nbytes": len(raw),
                })
                blobs.append(raw)
                offset += len(raw)

            segment = shared_memory.SharedMemory(
                create=True, size=max(offset, 1)
            )
            cursor = 0
            for raw in blobs:
                segment.buf[cursor: cursor + len(raw)] = raw
                cursor += len(raw)
            _OPEN_SEGMENTS[segment.name] = segment
            obs.incr("shm.segments.created")
            obs.gauge("shm.segments.open", open_segments())
            obs.gauge("shm.segment.bytes", offset)
            return WorldManifest(
                segment.name, specs, _world_identity(scale), meta
            )
    except Exception:
        obs.incr("shm.export_failed")
        return None


def attach_shared_world(manifest: Optional[WorldManifest]) -> None:
    """Pool initializer: map the parent's segment into this worker.

    MUST never raise — an initializer exception permanently breaks a
    :class:`~concurrent.futures.ProcessPoolExecutor`. Any failure
    leaves the worker detached, and every consumer falls back to the
    cache/rebuild path.
    """
    global _ATTACHED
    if manifest is None:
        return
    try:
        import multiprocessing
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(name=manifest.segment)
        try:
            # CPython < 3.13 registers attached segments with the
            # resource tracker (bpo-39959). Under spawn, each worker
            # runs its OWN tracker, which unlinks the segment when that
            # worker exits — yanking it from its siblings — so the
            # worker must unregister; the parent owns unlink. Under
            # fork, the tracker is shared with the parent and the
            # duplicate registration is a harmless set-add; there,
            # unregistering would erase the parent's own registration.
            if multiprocessing.get_start_method(allow_none=True) != "fork":
                resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        _ATTACHED = _Attached(manifest, shm)
    except Exception:
        _ATTACHED = None


def attached() -> Optional[_Attached]:
    """This process's attached world view, if any."""
    return _ATTACHED


def _identity_matches(scale) -> bool:
    if _ATTACHED is None:
        return False
    return _ATTACHED.manifest.identity == _world_identity(scale)


def attached_event_columns(scale):
    """The shared event table as DeviceEventColumns, or None."""
    if not _identity_matches(scale):
        return None
    try:
        from ..workload import DeviceEventColumns

        view = _ATTACHED.views["event_table"]
        meta = _ATTACHED.manifest.meta
        if meta.get("layout") != DeviceEventColumns.LAYOUT_VERSION:
            return None
        columns = DeviceEventColumns(view, tuple(meta["users"]))
        obs.incr("shm.event_columns.attached")
        return columns
    except Exception:
        return None


def attached_csr_buffers(scale) -> Optional[Dict[str, Any]]:
    """The shared CSR topology buffers, or None."""
    if not _identity_matches(scale):
        return None
    views = {
        name[len("csr."):]: view
        for name, view in _ATTACHED.views.items()
        if name.startswith("csr.")
    }
    return views or None


def attached_route_tables(scale) -> Optional[Dict[str, Any]]:
    """The shared per-destination route tables, or None."""
    if not _identity_matches(scale):
        return None
    views = {
        name[len("routes."):]: view
        for name, view in _ATTACHED.views.items()
        if name.startswith("routes.")
    }
    return views or None


def attached_next_hops(vantage_name: str, prefixes) -> Optional[Any]:
    """Shared-LUT next hops for ``prefixes`` at one vantage, or None.

    Binary-searches the packed sorted prefix keys; any prefix absent
    from the shared key set makes the whole lookup a miss (the caller
    falls back to computing, which also covers alternate workloads
    probing prefixes outside the exported universe).
    """
    if _ATTACHED is None:
        return None
    lut = _ATTACHED.views.get(f"lut.{vantage_name}")
    keys = _ATTACHED._prefix_keys
    if lut is None or keys is None or len(keys) == 0:
        return None
    wanted = np.array(
        [_pack_prefix(p.network, p.length) for p in prefixes],
        dtype=np.int64,
    )
    idx = np.searchsorted(keys, wanted)
    idx_clipped = np.minimum(idx, len(keys) - 1)
    if not (keys[idx_clipped] == wanted).all():
        return None
    obs.incr("shm.lut.lookups", len(prefixes))
    return lut[idx_clipped]


def cleanup(manifest: Optional[WorldManifest]) -> None:
    """Parent-side unlink of an exported segment (all exit paths).

    Also sweeps anything left in the registry — a non-empty registry
    after its manifest is gone is a leak, counted as ``shm.leaked`` so
    the chaos smoke can assert segment hygiene after worker kills.
    """
    if manifest is not None:
        _release(manifest.segment)
    leaked = list(_OPEN_SEGMENTS)
    if leaked:
        obs.incr("shm.leaked", len(leaked))
        for name in leaked:
            _release(name)
    obs.gauge("shm.segments.open", open_segments())


def _release(name: str) -> None:
    segment = _OPEN_SEGMENTS.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except Exception:
        pass
    obs.incr("shm.segments.unlinked")
