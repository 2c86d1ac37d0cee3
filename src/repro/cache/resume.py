"""The per-stage shard resume manifest.

When a pooled stage of a cached run streams its per-shard products
through the stage cache (every :class:`~repro.exec.ProcessPoolBackend`
run given a ``StageCache``), the backend also appends each completed
shard to a small JSON manifest under
``<cache_root>/resume/<stage_fingerprint>.json``.  The executor discards
the manifest once the stage-level entry lands, so only an interrupted
stage leaves one behind (and gc pins its shards).  The manifest is pure
bookkeeping — shard *results* live in ordinary content-addressed cache
entries and are re-probed by key on every run — but it gives a killed
run's operator (and the crash/resume tests) a durable, human-readable
record of which shards finished, and it lets ``repro-hunt`` report how
much of an interrupted sweep is already banked without decoding any
entries.

Writes are atomic (:func:`repro.atomic.atomic_write`), matching the
cache store: a crash mid-update leaves the previous complete manifest, never a
torn one.  A manifest that fails to parse is treated as absent — the
shard entries themselves are still found by key, so resume correctness
never depends on this file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.atomic import atomic_write

MANIFEST_SCHEMA = "repro.cache.resume-manifest/1"


class ResumeManifest:
    """Durable record of which shards of a stage have completed."""

    def __init__(self, cache_root: str | Path) -> None:
        self.root = Path(cache_root) / "resume"

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> dict[str, Any]:
        """The manifest for one stage fingerprint ({} when absent/bad)."""
        try:
            data = json.loads(self._path(fingerprint).read_text("utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict) or data.get("schema") != MANIFEST_SCHEMA:
            return {}
        return data

    def completed(self, fingerprint: str) -> dict[int, str]:
        """Completed shard ordinals -> shard cache keys."""
        shards = self.load(fingerprint).get("shards", {})
        if not isinstance(shards, dict):
            return {}
        out: dict[int, str] = {}
        for ordinal, key in shards.items():
            try:
                out[int(ordinal)] = str(key)
            except (TypeError, ValueError):
                continue
        return out

    def record(
        self,
        fingerprint: str,
        kernel: str,
        n_items: int,
        n_shards: int,
        ordinal: int,
        shard_key: str,
    ) -> None:
        """Append one completed shard (idempotent per ordinal)."""
        data = self.load(fingerprint)
        if not data:
            data = {
                "schema": MANIFEST_SCHEMA,
                "kernel": kernel,
                "n_items": n_items,
                "n_shards": n_shards,
                "shards": {},
            }
        shards = data.setdefault("shards", {})
        shards[str(ordinal)] = shard_key
        self._write(fingerprint, data)

    def discard(self, fingerprint: str) -> None:
        """Drop one stage's manifest (its stage-level entry landed)."""
        try:
            self._path(fingerprint).unlink()
        except OSError:
            pass

    def _write(self, fingerprint: str, data: dict[str, Any]) -> None:
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(data, sort_keys=True, indent=1).encode("utf-8")
        with atomic_write(path) as handle:
            handle.write(blob)


__all__ = ["MANIFEST_SCHEMA", "ResumeManifest"]
