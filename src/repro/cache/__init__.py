"""Content-addressed incremental stage cache.

Sweep-style workloads — parameter grids, fault-rate matrices, re-runs
with one changed input — recompute the same stage results over and over.
This package makes repeat runs cache loads instead:

* ``fingerprint`` — canonical content digests of everything that can
  change a stage's output (input channels, fault plan, configuration,
  stage code versions), composed into per-stage fingerprints through the
  :func:`repro.io.golden.canonical_json` encoder; a stage's fingerprint
  folds only the input channels and config fields its chain reads.
  Fingerprints are independent of dict ordering and of the execution
  backend.
* ``store`` — :class:`StageCache`, the checksummed on-disk store those
  fingerprints address.  Corrupt entries are detected, evicted, and
  recomputed; writes are atomic.

The executor (``repro.exec.executor``) probes the cache before each
cacheable stage and loads the stage's reduced products on a hit, so
serial and process-pool backends produce byte-identical reports warm or
cold — ``tests/test_golden_reports.py`` pins that equivalence against
the golden files.
"""

from repro.cache.fingerprint import (
    BLOCK_ROWS,
    CACHE_SALT,
    INPUT_CHANNELS,
    RunKey,
    block_digests,
    config_digest,
    derive_run_key,
    extended_block_digests,
    input_digests,
    inputs_digest,
    jsonable,
    plan_digest,
    stage_fingerprint,
    value_digest,
)
from repro.cache.resume import MANIFEST_SCHEMA as RESUME_MANIFEST_SCHEMA
from repro.cache.resume import ResumeManifest
from repro.cache.store import (
    CacheCounters,
    CacheEntry,
    CacheStats,
    GCResult,
    StageCache,
)

__all__ = [
    "BLOCK_ROWS",
    "CACHE_SALT",
    "INPUT_CHANNELS",
    "RunKey",
    "block_digests",
    "config_digest",
    "derive_run_key",
    "extended_block_digests",
    "input_digests",
    "inputs_digest",
    "jsonable",
    "plan_digest",
    "stage_fingerprint",
    "value_digest",
    "CacheCounters",
    "CacheEntry",
    "CacheStats",
    "GCResult",
    "RESUME_MANIFEST_SCHEMA",
    "ResumeManifest",
    "StageCache",
]
