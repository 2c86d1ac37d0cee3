"""The on-disk content-addressed stage-result store.

One cache entry per stage fingerprint, laid out
``<root>/<aa>/<fingerprint>.entry`` (two-hex-char shards keep directory
listings small).  An entry is::

    b"repro-cache/1\\n" + <hex blake2b of payload> + b"\\n" + <payload>

where the payload is a pickle of ``{"stage", "stats", "products"}`` —
the stage's :class:`~repro.exec.metrics.StageStats` plus the context
fields it produced.  The checksum line makes corruption (truncated
writes, bit flips, foreign files) a detectable *miss*: a bad entry is
evicted and the stage recomputed, never a crash or — worse — a silently
wrong report.

Writes are atomic (:func:`repro.atomic.atomic_write`), so a crashed run
leaves either a complete entry or none.  Reads touch the entry's mtime,
which is what :meth:`StageCache.gc` orders its least-recently-used
eviction by.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.atomic import atomic_write
from repro.exec.metrics import StageStats

_MAGIC = b"repro-cache/1\n"
_CHECKSUM_BYTES = 16


@dataclass
class CacheEntry:
    """One decoded stage result."""

    stage: str
    stats: StageStats
    products: dict[str, Any]
    nbytes: int


@dataclass(frozen=True, slots=True)
class CacheStats:
    """What :meth:`StageCache.stats` reports about the store on disk."""

    entries: int
    total_bytes: int


@dataclass
class CacheCounters:
    """This cache handle's lifetime counters (probe accounting)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


@dataclass
class GCResult:
    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int


class StageCache:
    """Content-addressed store of reduced stage results."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters = CacheCounters()

    def _path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.entry"

    # -- the run-time API ------------------------------------------------------

    def get(self, fingerprint: str) -> CacheEntry | None:
        """The entry at ``fingerprint``, or None (miss / corrupt)."""
        path = self._path(fingerprint)
        try:
            blob = path.read_bytes()
        except OSError:
            self.counters.misses += 1
            return None
        entry = _decode(blob)
        if entry is None:
            # Corrupt or truncated: evict so the slot is rewritten by
            # the recompute instead of failing every future probe.
            self.counters.misses += 1
            self.counters.evictions += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # LRU touch for gc ordering
        except OSError:
            pass
        self.counters.hits += 1
        self.counters.bytes_read += entry.nbytes
        return entry

    def put(
        self,
        fingerprint: str,
        stage: str,
        stats: StageStats,
        products: dict[str, Any],
    ) -> int:
        """Store one stage result; returns the entry size in bytes."""
        payload = pickle.dumps(
            {"stage": stage, "stats": stats, "products": products},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        checksum = hashlib.blake2b(
            payload, digest_size=_CHECKSUM_BYTES
        ).hexdigest()
        blob = _MAGIC + checksum.encode("ascii") + b"\n" + payload
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as handle:
            handle.write(blob)
        self.counters.stores += 1
        self.counters.bytes_written += len(blob)
        return len(blob)

    # -- maintenance -----------------------------------------------------------

    def _entry_paths(self) -> list[Path]:
        return sorted(self.root.glob("??/*.entry"))

    def stats(self) -> CacheStats:
        paths = self._entry_paths()
        return CacheStats(
            entries=len(paths),
            total_bytes=sum(p.stat().st_size for p in paths),
        )

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for shard in self.root.glob("??"):
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed

    def _pinned_fingerprints(self) -> set[str]:
        """Fingerprints a resume manifest still references.

        A killed sharded run banks per-shard products plus a manifest
        naming them.  Those shard entries and their manifest are one
        resume unit: evicting a shard product while the manifest still
        lists it would make the resumed run silently recompute what the
        operator believes is banked.  Gc therefore pins every shard key
        (and the stage fingerprint itself) named by a live manifest —
        the executor discards the manifest once the stage-level entry
        lands, which is what unpins them.
        """
        from repro.cache.resume import ResumeManifest

        manifest = ResumeManifest(self.root)
        pinned: set[str] = set()
        for path in manifest.root.glob("*.json"):
            fingerprint = path.stem
            data = manifest.load(fingerprint)
            if not data:
                continue
            pinned.add(fingerprint)
            shards = data.get("shards", {})
            if isinstance(shards, dict):
                pinned.update(str(key) for key in shards.values())
        return pinned

    def gc(self, max_bytes: int) -> GCResult:
        """Evict least-recently-used entries down to a byte budget.

        Entries referenced by a live shard resume manifest are pinned:
        they are kept (and counted against the budget) regardless of
        age, so an interrupted run's banked shards survive until its
        stage-level entry lands and the manifest is discarded.
        """
        pinned = self._pinned_fingerprints()
        entries = []
        result = GCResult(removed=0, freed_bytes=0, kept=0, kept_bytes=0)
        budget = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            if path.stem in pinned:
                budget += stat.st_size
                result.kept += 1
                result.kept_bytes += stat.st_size
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(reverse=True)  # newest (most recently used) first
        for mtime, size, path in entries:
            if budget + size <= max_bytes:
                budget += size
                result.kept += 1
                result.kept_bytes += size
                continue
            try:
                path.unlink()
                result.removed += 1
                result.freed_bytes += size
                self.counters.evictions += 1
            except OSError:
                pass
        return result


def _decode(blob: bytes) -> CacheEntry | None:
    """Decode one entry blob; None on any corruption."""
    if not blob.startswith(_MAGIC):
        return None
    body = blob[len(_MAGIC):]
    newline = body.find(b"\n")
    if newline != 2 * _CHECKSUM_BYTES:
        return None
    checksum, payload = body[:newline], body[newline + 1:]
    if hashlib.blake2b(payload, digest_size=_CHECKSUM_BYTES).hexdigest() != (
        checksum.decode("ascii", errors="replace")
    ):
        return None
    try:
        data = pickle.loads(payload)
        stage = data["stage"]
        stats = data["stats"]
        products = data["products"]
    except Exception:
        return None
    if not isinstance(stats, StageStats) or not isinstance(products, dict):
        return None
    return CacheEntry(
        stage=stage, stats=stats, products=products, nbytes=len(blob)
    )
