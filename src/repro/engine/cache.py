"""Content-addressed on-disk cache for the expensive World artifacts.

The substrate pieces every experiment shares — the AS topology, the
routing oracle, the mobility workloads, and the content measurements —
take the bulk of a run's wall time but are pure functions of
``(scale, seed, generator version)``. This cache pickles each piece
under a key derived from exactly those inputs, so parallel workers and
repeated CLI/bench invocations rebuild nothing.

Keys are content-addressed: a SHA-256 over the artifact name, the
generator version, and the sorted build parameters. Bump
:data:`GENERATOR_VERSION` whenever a generator's output changes so old
cache entries can never leak into new code.

Entries are *integrity-checked*: every file starts with a versioned
header carrying a SHA-256 checksum of the pickled payload, verified on
every read. A bit-flipped, truncated, or torn entry — which raw
``pickle.load`` might silently decode into wrong numbers — becomes a
counted ``cache.corrupt`` miss that is unlinked and rebuilt. Wrong
science is not a failure mode the cache is allowed to have.

Writes are atomic (temp file + :func:`os.replace`), so concurrent
workers racing to populate the same key are safe — the last writer
wins and every reader sees a complete entry. A write that fails
because the cache directory is unwritable or the disk is full degrades
gracefully: one warning, a ``cache.unwritable`` counter, and the run
continues uncached instead of surfacing OSError into the experiment
record.

The cache directory defaults to ``~/.cache/repro`` and is overridden
with the ``REPRO_CACHE_DIR`` environment variable; setting it to
``off``, ``none``, or ``0`` disables caching entirely. Setting
``REPRO_CACHE_MAX_MB`` bounds the directory's total size: after each
store, least-recently-used entries (hits refresh recency) are evicted
until the budget holds, so long campaigns cannot fill the disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
import warnings
from typing import Any, Callable, Dict, Optional

from .. import obs
from ..workload import require_numpy
from .chaos import ChaosConfig

np = require_numpy()

__all__ = [
    "ArtifactCache",
    "GENERATOR_VERSION",
    "ENTRY_VERSION",
    "ARRAY_SUFFIX",
    "CACHE_DIR_ENV",
    "CACHE_MAX_MB_ENV",
    "TMP_REAP_AGE_S",
]

#: Bump when any substrate generator changes its output.
#: 2: artifact keys carry the topology generator parameters and warm
#:    oracles pickle a route-dirtiness counter.
#: 3: checksummed entry container (pre-3 raw-pickle files are never
#:    read back as valid entries).
#: 4: array-native control plane — warm artifacts add the flat-buffer
#:    array layout (CSR topology, route tables, event columns) that
#:    warm runs memory-map instead of unpickling.
#: 5: content timelines pickle their ``AddrsMatrix`` instead of one
#:    frozenset per change point.
#: 6: topologies pickle a per-length hash index of their address space
#:    instead of a binary origin trie.
#: 7: mobility workloads pickle one segment table instead of their
#:    ``UserDay`` objects.
#: 8: mobility workloads lose their ``_user_days`` view slot; every
#:    reader reduces the segment table.
#: 9: pickled measurements carry integer address columns: each
#:    timeline's ``AddrsMatrix.addrs`` is an int64 array of values.
GENERATOR_VERSION = 9

#: On-disk entry container version (header format, not payload).
ENTRY_VERSION = 3

#: Environment variable naming the cache directory (or disabling it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the cache's total on-disk size in MiB
#: (unset or non-positive = unbounded).
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

_DISABLED_VALUES = {"off", "none", "0", ""}

#: Age (seconds since last mtime) past which an orphaned ``.tmp``
#: scratch file is reaped by the sweep. A live writer produces its temp
#: file in one buffered write followed immediately by ``os.replace``,
#: so anything this old belongs to a writer that died mid-store (e.g.
#: a SIGKILLed worker — exactly what ``REPRO_CHAOS=kill:…`` injects).
TMP_REAP_AGE_S = 300.0

#: Every entry starts with this magic + a JSON header line.
_MAGIC = b"repro-cache/3\n"

#: Array-artifact container magic (flat numpy buffers, mmap-able).
_ARRAY_MAGIC = b"repro-arrays/1\n"

#: File suffix of array-artifact entries (same key space as ``.pkl``).
ARRAY_SUFFIX = ".arr"

#: Sentinel distinguishing "no cache entry" from a legitimately cached
#: ``None`` value. Never escapes this module.
_MISS = object()

#: Sentinel for "resolve the size budget from the environment".
_FROM_ENV = object()

#: Everything a stale or truncated pickle can raise. Beyond the obvious
#: decode errors, a pickle referencing a class that has since moved or
#: been deleted raises ImportError/ModuleNotFoundError or
#: AttributeError, and a truncated or bit-rotted stream can surface as
#: ValueError (incl. UnicodeDecodeError), IndexError, KeyError, or
#: MemoryError (absurd length prefixes). All of them mean "this entry
#: is garbage", never "the caller did something wrong".
_CORRUPT_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    ValueError,
    IndexError,
    KeyError,
    MemoryError,
)


def _max_bytes_from_env() -> Optional[int]:
    raw = os.environ.get(CACHE_MAX_MB_ENV, "").strip()
    if not raw:
        return None
    try:
        max_mb = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {CACHE_MAX_MB_ENV}={raw!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    if max_mb <= 0:
        return None
    return int(max_mb * 1024 * 1024)


def _encode_entry(obj: Any) -> bytes:
    """Serialize ``obj`` into the checksummed entry container."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "entry_version": ENTRY_VERSION,
            "generator_version": GENERATOR_VERSION,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "size": len(payload),
        },
        sort_keys=True,
    ).encode("utf-8")
    return _MAGIC + header + b"\n" + payload


def _decode_entry(blob: bytes) -> Any:
    """Verify and deserialize one entry; raises on any integrity fault."""
    if not blob.startswith(_MAGIC):
        raise ValueError("not a repro cache entry (legacy or foreign file)")
    header_end = blob.index(b"\n", len(_MAGIC))
    header = json.loads(blob[len(_MAGIC):header_end].decode("utf-8"))
    if header.get("entry_version") != ENTRY_VERSION:
        raise ValueError(f"unknown entry version {header.get('entry_version')!r}")
    payload = blob[header_end + 1:]
    if len(payload) != header.get("size"):
        raise ValueError(
            f"payload truncated: {len(payload)} of {header.get('size')} bytes"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise ValueError("payload checksum mismatch (bit rot or torn write)")
    return pickle.loads(payload)


def _encode_dtype(dtype) -> Any:
    """A JSON-safe dtype description (structured dtypes keep ``descr``)."""
    if dtype.fields is not None:
        return dtype.descr
    return dtype.str


def _decode_dtype(spec: Any):
    """Rebuild a dtype from :func:`_encode_dtype`'s description."""
    if isinstance(spec, list):
        return np.dtype([tuple(field) for field in spec])
    return np.dtype(spec)


class ArtifactCache:
    """Checksummed pickle store keyed by artifact name + build params.

    Beyond pickles, the cache holds *array artifacts*: named flat numpy
    buffers in a single checksummed container that warm runs
    memory-map (:meth:`load_arrays`) instead of unpickling — the
    on-disk half of the array-native control plane. Array entries
    share the key space, the LRU sweep, the chaos-corruption hook, and
    the corrupt-entry accounting of their pickle siblings; a
    generator-version mismatch is a *counted* miss
    (``cache.version_mismatch``), never a crash.
    """

    def __init__(
        self,
        root: str,
        max_bytes: Any = _FROM_ENV,
        chaos: Optional[ChaosConfig] = None,
    ):
        self.root = root
        self.hits = 0
        self.misses = 0
        #: Total-size budget for the LRU sweep (None = unbounded).
        self.max_bytes: Optional[int] = (
            _max_bytes_from_env() if max_bytes is _FROM_ENV else max_bytes
        )
        self._chaos = chaos if chaos is not None else ChaosConfig.from_env()
        self._chaos_writes: Dict[str, int] = {}
        self._warned_unwritable = False

    @classmethod
    def from_env(cls) -> Optional["ArtifactCache"]:
        """The cache selected by ``REPRO_CACHE_DIR`` (None = disabled)."""
        value = os.environ.get(CACHE_DIR_ENV)
        if value is not None and value.strip().lower() in _DISABLED_VALUES:
            return None
        if value is None:
            value = os.path.join(os.path.expanduser("~"), ".cache", "repro")
        return cls(value)

    def key(self, artifact: str, **params: Any) -> str:
        """Content-addressed key for ``artifact`` built with ``params``."""
        payload = json.dumps(
            {"artifact": artifact, "version": GENERATOR_VERSION,
             "params": params},
            sort_keys=True,
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        return f"{artifact}-{digest}"

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.pkl")

    def load(self, key: str) -> Optional[Any]:
        """The cached object for ``key``, or None on a miss.

        A corrupt, truncated, checksum-failing, or stale entry (e.g.
        written by old code, or pickling a class that has since moved)
        counts as a miss: it is counted under the ``cache.corrupt``
        metric and unlinked so the next :meth:`store` starts clean.
        """
        obj = self._load(key)
        return None if obj is _MISS else obj

    def _load(self, key: str) -> Any:
        """The cached object for ``key``, or :data:`_MISS`."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return _MISS
        try:
            obj = _decode_entry(blob)
        except _CORRUPT_ERRORS:
            obs.incr("cache.corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return _MISS
        try:
            os.utime(path)  # refresh recency for the LRU sweep
        except OSError:
            pass
        return obj

    def _warn_unwritable(self, exc: OSError) -> None:
        obs.incr("cache.unwritable")
        if self._warned_unwritable:
            return
        self._warned_unwritable = True
        warnings.warn(
            f"artifact cache {self.root!r} is unwritable ({exc}); "
            f"continuing uncached",
            RuntimeWarning,
            stacklevel=3,
        )

    def store(self, key: str, obj: Any) -> Optional[str]:
        """Atomically persist ``obj`` under ``key``; returns the path.

        An unwritable directory or a disk that fills mid-write is not
        an experiment failure: the error is swallowed (warned once,
        counted as ``cache.unwritable``) and None is returned — the
        caller already holds ``obj`` and simply runs uncached.
        """
        path = self._path(key)
        tmp_path = None
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(_encode_entry(obj))
            os.replace(tmp_path, path)
            tmp_path = None
        except OSError as exc:
            self._warn_unwritable(exc)
            return None
        finally:
            if tmp_path is not None and os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
        self._maybe_chaos_corrupt(key, path)
        self._sweep(keep=path)
        return path

    # -- array artifacts (flat numpy buffers, memory-mapped) ------------

    def _array_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}{ARRAY_SUFFIX}")

    def store_arrays(
        self,
        key: str,
        arrays: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        """Atomically persist named numpy buffers under ``key``.

        The container is one JSON header (buffer names, dtypes, shapes,
        offsets, and a SHA-256 over the whole data region) followed by
        the raw buffer bytes, so :meth:`load_arrays` can hand back
        zero-copy memory-mapped views. Failure handling matches
        :meth:`store`: unwritable means warn once and run uncached.
        """
        chunks = []
        specs = []
        offset = 0
        for name in sorted(arrays):
            buf = np.ascontiguousarray(arrays[name])
            raw = buf.tobytes()
            specs.append(
                {
                    "name": name,
                    "dtype": _encode_dtype(buf.dtype),
                    "shape": list(buf.shape),
                    "offset": offset,
                    "nbytes": len(raw),
                }
            )
            chunks.append(raw)
            offset += len(raw)
        data = b"".join(chunks)
        header = json.dumps(
            {
                "entry_version": ENTRY_VERSION,
                "generator_version": GENERATOR_VERSION,
                "meta": meta or {},
                "buffers": specs,
                "data_size": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            },
            sort_keys=True,
        ).encode("utf-8")
        path = self._array_path(key)
        tmp_path = None
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(_ARRAY_MAGIC + header + b"\n" + data)
            os.replace(tmp_path, path)
            tmp_path = None
        except OSError as exc:
            self._warn_unwritable(exc)
            return None
        finally:
            if tmp_path is not None and os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
        obs.incr("cache.arrays.stored")
        self._maybe_chaos_corrupt(key, path)
        self._sweep(keep=path)
        return path

    def load_arrays(self, key: str) -> Optional[tuple]:
        """``(buffers, meta)`` for an array artifact, or None on a miss.

        ``buffers`` maps each name to a read-only memory-mapped view —
        no unpickle, no copy; the checksum of the data region is
        verified first (one sequential read that doubles as page-cache
        warming). A corrupt or truncated entry is a ``cache.corrupt``
        miss; an entry written by a different :data:`GENERATOR_VERSION`
        is a ``cache.version_mismatch`` miss. Both unlink the file.
        """
        path = self._array_path(key)
        try:
            with open(path, "rb") as handle:
                magic = handle.read(len(_ARRAY_MAGIC))
                if magic != _ARRAY_MAGIC:
                    raise ValueError("not a repro array artifact")
                header_line = handle.readline()
            header = json.loads(header_line.decode("utf-8"))
            if header.get("entry_version") != ENTRY_VERSION:
                raise ValueError(
                    f"unknown entry version {header.get('entry_version')!r}"
                )
        except OSError:
            return None
        except _CORRUPT_ERRORS:
            return self._drop_corrupt(path)
        if header.get("generator_version") != GENERATOR_VERSION:
            # Stale generator: old arrays must never feed new code, but
            # a version bump is an expected miss, not an integrity
            # fault — counted separately so tests can pin it.
            obs.incr("cache.version_mismatch")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        data_start = len(_ARRAY_MAGIC) + len(header_line)
        try:
            raw = np.memmap(path, mode="r", dtype=np.uint8,
                            offset=data_start)
            if len(raw) != header.get("data_size"):
                raise ValueError(
                    f"data truncated: {len(raw)} of "
                    f"{header.get('data_size')} bytes"
                )
            if hashlib.sha256(raw).hexdigest() != header.get("sha256"):
                raise ValueError("data checksum mismatch")
            buffers = {}
            for spec in header["buffers"]:
                dtype = _decode_dtype(spec["dtype"])
                view = raw[spec["offset"]: spec["offset"] + spec["nbytes"]]
                buffers[spec["name"]] = view.view(dtype).reshape(
                    spec["shape"]
                )
        except _CORRUPT_ERRORS:
            return self._drop_corrupt(path)
        try:
            os.utime(path)  # refresh recency for the LRU sweep
        except OSError:
            pass
        obs.incr("cache.arrays.mmap")
        return buffers, header.get("meta", {})

    def _drop_corrupt(self, path: str) -> None:
        obs.incr("cache.corrupt")
        try:
            os.unlink(path)
        except OSError:
            pass
        return None

    def _maybe_chaos_corrupt(self, key: str, path: str) -> None:
        """Chaos hook: truncate the entry just written (torn write)."""
        if self._chaos is None or not self._chaos.corrupt:
            return
        sequence = self._chaos_writes.get(key, 0)
        self._chaos_writes[key] = sequence + 1
        if not self._chaos.should_corrupt(key, sequence):
            return
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(len(_MAGIC), size // 2))
            obs.incr("chaos.cache_corrupt")
        except OSError:
            pass

    def _sweep(self, keep: Optional[str] = None) -> None:
        """Reap orphaned ``.tmp`` files; evict LRU past :attr:`max_bytes`.

        A writer that dies between ``tempfile.mkstemp`` and
        ``os.replace`` (SIGKILL never runs the ``finally``) leaves its
        scratch ``.tmp`` behind; before this sweep learned to match
        them they accumulated unbounded and never counted toward the
        size budget. Reaping is age-gated by :data:`TMP_REAP_AGE_S` so
        a concurrent worker's in-flight write is never raced; young
        scratch files still count toward the budget total.
        """
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        now = time.time()
        entries = []
        total = 0
        for name in names:
            path = os.path.join(self.root, name)
            if name.endswith(".tmp"):
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                if now - stat.st_mtime >= TMP_REAP_AGE_S:
                    try:
                        os.unlink(path)
                    except OSError:
                        continue
                    obs.incr("cache.tmp_reaped")
                else:
                    total += stat.st_size  # in-flight writer's scratch
                continue
            if not name.endswith((".pkl", ARRAY_SUFFIX)):
                continue
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if self.max_bytes is None or total <= self.max_bytes:
            return
        entries.sort()  # oldest mtime first
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and os.path.abspath(path) == os.path.abspath(keep):
                continue  # never evict the entry we just paid to write
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            obs.incr("cache.evicted")

    def get_or_build(
        self, artifact: str, builder: Callable[[], Any], **params: Any
    ) -> Any:
        """Load ``artifact`` from the cache or build + persist it.

        The miss test is entry *presence*, not truthiness: an artifact
        whose legitimate value is ``None`` (or empty) is stored once
        and is a hit on every later call.
        """
        key = self.key(artifact, **params)
        cached = self._load(key)
        if cached is not _MISS:
            self.hits += 1
            obs.incr("cache.hit")
            return cached
        self.misses += 1
        obs.incr("cache.miss")
        obj = builder()
        self.store(key, obj)
        return obj
