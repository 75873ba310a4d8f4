"""Concurrency-safe content-addressed result store.

:class:`ResultStore` memoises :class:`~repro.api.RunResult` records on disk
so repeated figure regeneration skips the simulation entirely.  The CLI's
``--cache-dir``, :class:`~repro.api.SweepRunner` (``cache_dir="dir"``) and
the HTTP service all use it, so a result computed by one is served warm by
the others.

* **Identity.**  An entry's key is
  ``sha256(spec_hash : model_fingerprint [: plugin digests] [: kind token])``.
  The model fingerprint (:func:`model_fingerprint`) hashes the relative
  path and bytes of every ``.py`` file under ``repro/``, so *any* edit to
  the package's source gives every spec a new key: a result never outlives
  the code that produced it.  A spec naming a plugin registered from
  outside ``repro`` (kind, workload, device, fabric or protocol) also folds
  that plugin's source-file digest in, and a kind may add a per-spec token
  (trace replay adds the trace file's digest, because a trace is input
  data, not code).  Each entry is stamped with the fingerprint it was
  written under; entries with a foreign stamp are never served and
  :meth:`ResultStore.gc` prunes them as ``stale``.
* **Sharded layout.**  Entries live under two-level fan-out directories
  (``ab/cd/<key>.json`` for key ``abcd…``), so a store holding hundreds of
  thousands of results never puts them all in one directory.
* **Atomic writes.**  Entry and metadata files are written tempfile-first
  and ``os.replace``\\ d into place: concurrent writers of the same key race
  safely (each lands a complete entry; last rename wins) and a crashed
  writer never leaves a torn file.
* **Per-entry metadata.**  A ``<key>.meta.json`` sidecar records created /
  last-hit timestamps, a hit counter, the entry's byte size, its strong
  ETag (sha256 of the entry bytes, computed at write time), and a ``pinned``
  flag.  Metadata updates are best-effort read-modify-write — a lost
  last-hit update only makes the LRU ordering approximate, never unsafe.
* **LRU eviction with a byte budget.**  ``budget_bytes`` caps the store;
  :meth:`ResultStore.enforce_budget` evicts least-recently-hit entries
  until under budget.  Pinned (golden) entries are **never** evicted, even
  if the pinned set alone exceeds the budget.
* **Key-addressed reads.**  :meth:`ResultStore.read_entry` serves the raw
  entry bytes plus ETag for a bare key — the HTTP layer's pure read path,
  which never parses a spec or constructs a Machine.

Corrupt entries are treated as misses and rewritten; the store is safe to
delete at any time.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api.kinds import kind_spec
from repro.api.results import RunResult
from repro.api.spec import ExperimentSpec
from repro.apps.registry import workload_class
from repro.coherence.protocols.registry import plugin_source
from repro.network.registry import fabric_class, parse_fabric
from repro.ni.taxonomy import device_class

#: Default store location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_META_SUFFIX = ".meta.json"

#: Subdirectory corrupt entries are moved into.  The name is deliberately
#: longer than two characters so quarantined files escape the sharded
#: ``??/??/*.json`` walk — a quarantined entry is invisible to every read,
#: eviction and gc path until an operator inspects it.
_QUARANTINE_DIR = "quarantine"

#: The ``repro`` package directory whose sources make up the fingerprint.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def model_fingerprint() -> str:
    """sha256 over the relative path and bytes of every ``.py`` file under
    the ``repro`` package, computed on first use and then kept for the
    life of the process (never at import)."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(_PACKAGE_DIR):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                data = handle.read()
            rel = os.path.relpath(path, _PACKAGE_DIR).replace(os.sep, "/")
            digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
    return digest.hexdigest()


def _outside_source(obj: Any) -> Optional[str]:
    """Source file of a plugin object defined outside ``repro`` (``None``
    for built-ins, whose bytes the fingerprint already covers)."""
    module = getattr(obj, "__module__", None) or ""
    if module == "repro" or module.startswith("repro."):
        return None
    path = getattr(sys.modules.get(module), "__file__", None)
    return path or f"<{module}.{getattr(obj, '__qualname__', '?')}>"


def _source_digest(path: str) -> str:
    """sha256 of a source file; the bare name when it cannot be read (a
    plugin defined interactively has no file to version)."""
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return path


def plugin_digests(spec: ExperimentSpec) -> List[str]:
    """Source digests of the plugins ``spec`` names that were registered
    from outside ``repro`` — read at call time, so editing a plugin's
    module changes the keys of the specs that name it."""
    sources = [_outside_source(kind_spec(spec.kind).measure), plugin_source(spec.params.get("protocol"))]
    for lookup, name in (
        (device_class, spec.device),
        (workload_class, spec.workload),
        (lambda fabric: fabric_class(parse_fabric(fabric).kind), spec.params.get("fabric")),
    ):
        if isinstance(name, str):
            try:
                sources.append(_outside_source(lookup(name)))
            except ValueError:
                pass  # an unknown name: validation reports it, not the key
    return [_source_digest(path) for path in sources if path]


# ----------------------------------------------------------------------
# Entry codec
# ----------------------------------------------------------------------
def encode_entry(result: RunResult) -> Dict:
    """``result`` as an entry payload, stamped with the model fingerprint."""
    payload = result.to_dict()
    payload["model_fingerprint"] = model_fingerprint()
    return payload


def decode_entry(payload: Any, spec: Optional[ExperimentSpec] = None) -> Optional[RunResult]:
    """Decode an entry payload into a :class:`RunResult`, or ``None``.

    ``None`` means the entry must be treated as a miss: the payload is
    missing or has the wrong shape, was written under another model
    fingerprint, or (when ``spec`` is given) records a different spec — a
    hash collision in the filename or a hand-edited entry.
    """
    if payload is None:
        return None
    try:
        result = RunResult.from_dict(payload)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    if payload.get("model_fingerprint") != model_fingerprint():
        return None
    if spec is not None and result.spec.spec_hash() != spec.spec_hash():
        return None
    return result


def _read_json(path: str) -> Any:
    """The JSON document at ``path``, or ``None`` if unreadable/torn."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def write_entry_atomic(path: str, payload: Dict) -> bytes:
    """Serialise ``payload`` to ``path`` via tempfile + ``os.replace``.

    The write-rename means a crashed or racing writer never leaves a torn
    JSON file: concurrent writers of the same key each land a complete
    entry, last rename wins.  Returns the exact bytes written, so callers
    can derive content digests (ETags) without re-reading the file.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return data


class CorruptEntryError(RuntimeError):
    """A store entry exists but holds torn/unparseable JSON.

    Raised by the key-addressed serving path after the offending file has
    been moved to the quarantine directory; the caller should answer 503
    with a short ``Retry-After`` — the next request re-simulates the point
    (the key now reads as a miss) instead of serving garbage bytes.
    """


@dataclass
class EntryInfo:
    """One store entry as seen by the admin/eviction walks."""

    key: str
    path: str
    size: int
    kind: str = "?"
    created: float = 0.0
    last_hit: float = 0.0
    hits: int = 0
    pinned: bool = False
    etag: str = ""
    #: "ok" | "stale" (written under another model fingerprint) | "corrupt"
    state: str = "ok"


class ResultStore:
    """Sharded, metadata-tracked, budget-evicted result store.

    Parameters
    ----------
    directory:
        Store root.
    budget_bytes:
        Byte budget for LRU eviction, or ``None`` for unbounded.  Workers
        inside a sweep pass ``None`` and let the owning process enforce the
        budget once per sweep.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR, budget_bytes: Optional[int] = None):
        self.directory = directory
        self.budget_bytes = budget_bytes
        self.hits = 0
        self.misses = 0
        #: Entries written through this instance.
        self.stores = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.quarantined = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def cache_key(self, spec: ExperimentSpec) -> str:
        """The store key of ``spec`` (see the module docstring)."""
        parts = [spec.spec_hash(), model_fingerprint(), *plugin_digests(spec)]
        token = kind_spec(spec.kind).cache_token
        if token is not None:
            parts.append(token(spec))
        return hashlib.sha256(":".join(parts).encode("utf-8")).hexdigest()

    def path_for_key(self, key: str) -> str:
        """Sharded entry path: ``<root>/<k[:2]>/<k[2:4]>/<key>.json``."""
        return os.path.join(self.directory, key[:2], key[2:4], f"{key}.json")

    def path_for(self, spec: ExperimentSpec) -> str:
        return self.path_for_key(self.cache_key(spec))

    def meta_path_for_key(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key[2:4], f"{key}{_META_SUFFIX}")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, _QUARANTINE_DIR)

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine(self, key: str, path: Optional[str] = None) -> bool:
        """Move a corrupt entry (and its sidecar) out of the serving tree.

        Quarantined files keep their names under ``quarantine/`` for
        post-mortem inspection but are invisible to every read path, so the
        key immediately reads as a miss and gets recomputed.  Returns True
        if an entry file was actually moved.
        """
        path = path or self.path_for_key(key)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        moved = False
        for victim in (path, self.meta_path_for_key(key)):
            try:
                os.replace(victim, os.path.join(self.quarantine_dir, os.path.basename(victim)))
                moved = moved or not victim.endswith(_META_SUFFIX)
            except OSError:
                continue
        if moved:
            with self._lock:
                self.quarantined += 1
        return moved

    def quarantine_count(self) -> int:
        """Entries currently sitting in the quarantine directory."""
        return len(
            [
                name
                for name in glob.glob(os.path.join(self.quarantine_dir, "*.json"))
                if not name.endswith(_META_SUFFIX)
            ]
        )

    # ------------------------------------------------------------------
    # Spec-addressed reads and writes
    # ------------------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """The stored result for ``spec``, or None on a miss."""
        key = self.cache_key(spec)
        result = decode_entry(_read_json(self.path_for_key(key)), spec)
        if result is None:
            with self._lock:
                self.misses += 1
            return None
        self._touch(key)
        with self._lock:
            self.hits += 1
        result.cached = True
        return result

    def peek(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """Like :meth:`get` but counter- and metadata-neutral.

        Dedup waiters poll this while a leader runs; a poll loop must not
        inflate miss counters or burn last-hit updates.
        """
        result = decode_entry(_read_json(self.path_for(spec)), spec)
        if result is not None:
            result.cached = True
        return result

    def put(self, result: RunResult, pinned: Optional[bool] = None) -> str:
        """Persist ``result``; returns the entry path written."""
        key = self.cache_key(result.spec)
        path = self.path_for_key(key)
        data = write_entry_atomic(path, encode_entry(result))
        self._write_meta(key, result.spec.kind, data, preserve=True, pinned=pinned)
        with self._lock:
            self.stores += 1
        if self.budget_bytes is not None:
            self.enforce_budget()
        return path

    def clear(self) -> int:
        """Remove every entry; returns the count."""
        removed = 0
        for info in self.entries(include_invalid=True):
            try:
                os.unlink(info.path)
                removed += 1
            except OSError:
                continue
            self._unlink_meta(info.key)
        return removed

    def counters(self) -> Dict[str, int]:
        """This instance's hit/miss/store counters (no filesystem walk)."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def stats(self) -> Dict[str, int]:
        """:meth:`counters` plus eviction totals and the store's current
        usage (walks every entry)."""
        entries, total, pinned = self._usage()
        return {
            **self.counters(),
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "quarantined": self.quarantined,
            "entries": entries,
            "bytes": total,
            "pinned": pinned,
        }

    # ------------------------------------------------------------------
    # Key-addressed read path (no spec, no Machine)
    # ------------------------------------------------------------------
    def read_entry(self, key: str) -> Optional[Tuple[bytes, str]]:
        """The raw entry bytes and strong ETag for ``key``, or ``None``.

        This is the serving read path: one file read plus a JSON
        well-formedness and fingerprint-stamp check (no result decode, no
        spec validation, and definitely no Machine construction).  An entry
        written under another model fingerprint reads as ``None``.  A torn
        entry is moved to quarantine and surfaces as
        :class:`CorruptEntryError` so the HTTP layer can answer 503 instead
        of shipping garbage bytes.
        """
        path = self.path_for_key(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        try:
            payload = json.loads(data)
        except ValueError:
            self.quarantine(key, path)
            raise CorruptEntryError(f"store entry {key[:12]}… is corrupt; quarantined")
        if not isinstance(payload, dict) or payload.get("model_fingerprint") != model_fingerprint():
            return None
        meta = self.read_meta(key)
        etag = meta.get("etag") or hashlib.sha256(data).hexdigest()
        self._touch(key)
        return data, etag

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def read_meta(self, key: str) -> Dict:
        """The sidecar metadata for ``key``; ``{}`` when missing or damaged.

        Sidecars are advisory (they order eviction and carry the ETag), so a
        torn or wrong-shaped one must never take down a read path: anything
        that is not a JSON object degrades to empty metadata.
        """
        meta = _read_json(self.meta_path_for_key(key))
        return meta if isinstance(meta, dict) else {}

    def _write_meta(
        self,
        key: str,
        kind: str,
        data: bytes,
        preserve: bool = False,
        pinned: Optional[bool] = None,
    ) -> None:
        now = time.time()
        old = self.read_meta(key) if preserve else {}
        meta = {
            "key": key,
            "kind": kind,
            "created": old.get("created", now),
            "last_hit": old.get("last_hit", now),
            "hits": old.get("hits", 0),
            "pinned": old.get("pinned", False) if pinned is None else bool(pinned),
            "size": len(data),
            "etag": hashlib.sha256(data).hexdigest(),
        }
        write_entry_atomic(self.meta_path_for_key(key), meta)

    def _touch(self, key: str) -> None:
        """Best-effort last-hit bump; losing a racing update is harmless."""
        path = self.meta_path_for_key(key)
        meta = _read_json(path)
        if not isinstance(meta, dict):
            return
        meta["last_hit"] = time.time()
        meta["hits"] = int(meta.get("hits", 0)) + 1
        try:
            write_entry_atomic(path, meta)
        except OSError:
            pass

    def _unlink_meta(self, key: str) -> None:
        try:
            os.unlink(self.meta_path_for_key(key))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self, key: str, pinned: bool = True) -> bool:
        """Mark the entry as golden (never evicted); False if no such entry."""
        path = self.path_for_key(key)
        if not os.path.exists(path):
            return False
        meta = self.read_meta(key)
        if not meta:
            with open(path, "rb") as handle:
                self._write_meta(key, "?", handle.read())
            meta = self.read_meta(key)
        meta["pinned"] = bool(pinned)
        write_entry_atomic(self.meta_path_for_key(key), meta)
        return True

    def resolve_key(self, prefix: str) -> List[str]:
        """Full keys matching a (possibly abbreviated) hex key prefix."""
        return sorted(
            info.key
            for info in self.entries(include_invalid=True)
            if info.key.startswith(prefix)
        )

    # ------------------------------------------------------------------
    # Walks, eviction, gc
    # ------------------------------------------------------------------
    def entries(self, include_invalid: bool = False) -> Iterator[EntryInfo]:
        """Every entry in the store.

        With ``include_invalid`` the walk also yields entries classified
        ``corrupt`` (unreadable/torn JSON) or ``stale`` (written under
        another model fingerprint); by default only ``ok`` entries.
        """
        for path in glob.glob(os.path.join(self.directory, "??", "??", "*.json")):
            name = os.path.basename(path)
            if name.endswith(_META_SUFFIX):
                continue
            info = self._classify(name[: -len(".json")], path)
            if include_invalid or info.state == "ok":
                yield info

    def _classify(self, key: str, path: str) -> EntryInfo:
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        payload = _read_json(path)
        state = "corrupt"
        if payload is not None:
            try:
                RunResult.from_dict(payload)
            except (ValueError, KeyError, TypeError, AttributeError):
                pass
            else:
                current = payload.get("model_fingerprint") == model_fingerprint()
                state = "ok" if current else "stale"
        meta = self.read_meta(key)
        mtime = 0.0
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            pass
        kind = "?"
        if isinstance(payload, dict):
            spec = payload.get("spec")
            if isinstance(spec, dict):
                kind = str(spec.get("kind", "?"))
        return EntryInfo(
            key=key,
            path=path,
            size=size,
            kind=meta.get("kind", kind),
            created=float(meta.get("created", mtime)),
            last_hit=float(meta.get("last_hit", mtime)),
            hits=int(meta.get("hits", 0)),
            pinned=bool(meta.get("pinned", False)),
            etag=str(meta.get("etag", "")),
            state=state,
        )

    def _usage(self) -> Tuple[int, int, int]:
        entries = total = pinned = 0
        for info in self.entries(include_invalid=True):
            entries += 1
            total += info.size
            if info.pinned:
                pinned += 1
        return entries, total, pinned

    def total_bytes(self) -> int:
        return self._usage()[1]

    def enforce_budget(self, budget_bytes: Optional[int] = None) -> int:
        """Evict least-recently-hit unpinned entries until under budget.

        Returns the number of entries evicted.  Pinned entries are never
        touched: a store whose pinned set exceeds the budget simply stays
        over budget.
        """
        budget = self.budget_bytes if budget_bytes is None else budget_bytes
        if budget is None:
            return 0
        with self._lock:
            infos = list(self.entries(include_invalid=True))
            total = sum(info.size for info in infos)
            if total <= budget:
                return 0
            victims = sorted(
                (info for info in infos if not info.pinned),
                key=lambda info: info.last_hit,
            )
            evicted = 0
            for info in victims:
                if total <= budget:
                    break
                try:
                    os.unlink(info.path)
                except OSError:
                    continue
                self._unlink_meta(info.key)
                total -= info.size
                evicted += 1
                self.evicted_bytes += info.size
            self.evictions += evicted
            return evicted

    def gc(self, dry_run: bool = False) -> Dict[str, int]:
        """Prune corrupt and stale entries (plus orphaned sidecars and temp
        files).

        Stale entries — written under another model fingerprint — are
        unreachable by key once the code changes; gc reclaims them.
        Returns a report of what was (or, with ``dry_run``, would be)
        removed.
        """
        report = {
            "stale": 0,
            "corrupt": 0,
            "orphan_meta": 0,
            "tmp": 0,
            "bytes": 0,
            "quarantined": self.quarantine_count(),
        }
        live = set()
        for info in self.entries(include_invalid=True):
            if info.state == "ok":
                live.add(info.key)
                continue
            report[info.state] += 1
            report["bytes"] += info.size
            if not dry_run:
                try:
                    os.unlink(info.path)
                except OSError:
                    pass
                self._unlink_meta(info.key)
        for path in glob.glob(os.path.join(self.directory, "??", "??", f"*{_META_SUFFIX}")):
            key = os.path.basename(path)[: -len(_META_SUFFIX)]
            if key not in live:
                report["orphan_meta"] += 1
                if not dry_run:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
        for pattern in ("*.tmp", os.path.join("??", "??", "*.tmp")):
            for path in glob.glob(os.path.join(self.directory, pattern)):
                report["tmp"] += 1
                if not dry_run:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
        return report

    def __repr__(self) -> str:
        return (
            f"<ResultStore {self.directory!r} hits={self.hits} misses={self.misses} "
            f"stores={self.stores} evictions={self.evictions}>"
        )
