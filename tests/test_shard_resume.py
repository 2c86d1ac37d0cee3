"""Crash/resume integration: per-shard products survive a killed run.

A process-pool run given a stage cache streams each completed shard's
products into the cache as it lands.  These tests kill such a run
mid-stage with injected worker crashes (reusing :mod:`repro.faults`'s
crash channel), then re-run clean against the same cache root and pin
the recovery contract:

* the final report is byte-identical to the pinned golden (the shards
  banked by the dead run are semantically invisible);
* the run's metrics — and the ledger record built from them — show
  exactly the remaining shards recomputed (``shards.resumed`` +
  ``shards.computed`` == ``shards.total``);
* the resume manifest under the cache root maps ordinals to shard keys,
  and a completed stage drops it so gc can reclaim the shards.
"""

from __future__ import annotations

import pytest

from repro.cache import ResumeManifest, StageCache
from repro.core.pipeline import HijackPipeline
from repro.exec import ProcessPoolBackend
from repro.faults import FaultPlan, FaultSpec
from repro.faults.errors import RetryBudgetExceeded
from repro.io.golden import encode_report

from tests.test_golden_reports import _golden_text, _study

#: Deterministic crash geometry: with this plan over the seed-7 golden
#: study (8 deployment shards, 2 workers), shard 3 exhausts its single
#: retry after three earlier shards have already been banked.
CRASH_SPEC = FaultSpec(worker_crash=0.4, max_retries=1)
CRASH_PLAN_SEED = 3
STUDY_SEED = 7


#: A plan that spares every deployment shard and the inline classify
#: chunk but crashes inspect shard 2, so the dead run has banked the
#: whole deployment stage plus inspect shards 0 and 1.
INSPECT_CRASH_PLAN = FaultPlan(
    spec=FaultSpec(worker_crash=0.1, max_retries=1), seed=4
)


def _sharded_backend() -> ProcessPoolBackend:
    return ProcessPoolBackend(jobs=2)


def _crash_run(cache: StageCache, plan: FaultPlan | None = None) -> None:
    plan = plan or FaultPlan(spec=CRASH_SPEC, seed=CRASH_PLAN_SEED)
    pipeline = HijackPipeline.from_study(_study(STUDY_SEED), faults=plan)
    with pytest.raises(RetryBudgetExceeded):
        pipeline.run(_sharded_backend(), cache=cache)


def _shard_entries(cache: StageCache, kernel: str) -> list[str]:
    return [
        path.stem
        for path in cache.root.glob("??/*.entry")
        if (entry := cache.get(path.stem)) is not None
        and entry.stage == f"shard:{kernel}"
    ]


def test_crashed_run_banks_completed_shards(tmp_path):
    cache = StageCache(tmp_path / "cache")
    _crash_run(cache)
    assert cache.counters.stores > 0, "no shard products were banked"
    # The resume directory exists and carries at least one manifest
    # mapping shard ordinals to their cache keys.
    manifests = list((tmp_path / "cache" / "resume").glob("*.json"))
    assert manifests, "no resume manifest was written"


def test_clean_rerun_resumes_and_matches_golden(tmp_path):
    golden = _golden_text(STUDY_SEED)
    cache = StageCache(tmp_path / "cache")
    _crash_run(cache)
    banked = cache.counters.stores

    # Clean re-run (no worker faults) against the same cache root: the
    # banked shards are resumed, only the remainder recomputed, and the
    # report is byte-identical to the pinned golden.
    rerun_cache = StageCache(tmp_path / "cache")
    pipeline = HijackPipeline.from_study(_study(STUDY_SEED))
    report, metrics = pipeline.profile(_sharded_backend(), cache=rerun_cache)
    assert encode_report(report) == golden

    counters = metrics.metrics["counters"]
    assert counters["shards.resumed"] == banked
    assert counters["shards.resumed"] > 0
    assert (
        counters["shards.computed"]
        == counters["shards.total"] - counters["shards.resumed"]
    )


def test_ledger_records_resumed_shard_counters(tmp_path):
    """The durable record of a resumed run carries the shard economics —
    how much of the dead run's work was salvaged is auditable later."""
    from repro.obs import RunLedger

    cache = StageCache(tmp_path / "cache")
    _crash_run(cache)

    ledger = RunLedger(tmp_path / "ledger")
    report, _metrics = HijackPipeline.from_study(_study(STUDY_SEED)).profile(
        _sharded_backend(), cache=StageCache(tmp_path / "cache"), ledger=ledger
    )
    assert encode_report(report) == _golden_text(STUDY_SEED)

    record = ledger.load(ledger.latest().run_id)
    counters = record.metrics["counters"]
    assert counters["shards.resumed"] > 0
    assert (
        counters["shards.computed"]
        == counters["shards.total"] - counters["shards.resumed"]
    )


def test_resume_manifest_maps_ordinals_to_shard_keys(tmp_path):
    cache = StageCache(tmp_path / "cache")
    _crash_run(cache)
    manifest = ResumeManifest(cache.root)
    fingerprints = [p.stem for p in (cache.root / "resume").glob("*.json")]
    assert fingerprints
    completed = manifest.completed(fingerprints[0])
    assert completed, "manifest holds no completed shards"
    assert all(isinstance(k, int) for k in completed)
    assert all(isinstance(v, str) and len(v) == 48 for v in completed.values())


def test_spawn_pool_rebuild_survives_crashes_and_matches_golden(tmp_path):
    """Under spawn, replacement workers after injected crashes reattach
    to the parent's shared-memory input image (never a re-pickle), and
    the retried run still reproduces the golden bytes."""
    plan = FaultPlan(spec=FaultSpec(worker_crash=0.3, max_retries=6), seed=5)
    pipeline = HijackPipeline.from_study(_study(STUDY_SEED), faults=plan)
    backend = ProcessPoolBackend(jobs=2, start_method="spawn")
    report = pipeline.run(backend)
    assert encode_report(report) == _golden_text(STUDY_SEED)


def test_completed_run_drops_its_manifests_and_gc_empties_the_cache(tmp_path):
    """Once a stage-level entry lands its resume manifest goes, so a
    completed run pins nothing: gc down to zero bytes removes every
    entry, banked shards included."""
    cache = StageCache(tmp_path / "cache")
    report = HijackPipeline.from_study(_study(STUDY_SEED)).run(
        _sharded_backend(), cache=cache
    )
    assert encode_report(report) == _golden_text(STUDY_SEED)
    assert _shard_entries(cache, "deployment"), "no shard products were banked"
    assert not list((cache.root / "resume").glob("*.json"))
    result = cache.gc(max_bytes=0)
    assert result.kept == 0
    assert cache.stats().entries == 0


def test_inspect_shards_bank_and_resume(tmp_path):
    """Inspection shards carry their items (shortlisted entries), yet bank
    and resume exactly like the deployment sweep's ordinal ranges."""
    plan = INSPECT_CRASH_PLAN
    assert not any(plan.worker_fault("deployment", o, 0) for o in range(8))
    assert plan.worker_fault("classify", "inline", 0) is None
    crashed = [o for o in range(8) if plan.worker_fault("inspect", o, 0)]
    assert crashed and crashed[0] >= 1

    cache = StageCache(tmp_path / "cache")
    _crash_run(cache, plan)
    assert len(_shard_entries(cache, "inspect")) >= 1

    report, metrics = HijackPipeline.from_study(_study(STUDY_SEED)).profile(
        _sharded_backend(), cache=StageCache(tmp_path / "cache")
    )
    assert encode_report(report) == _golden_text(STUDY_SEED)
    counters = metrics.metrics["counters"]
    assert counters["shards.resumed"] >= 1
    assert (
        counters["shards.computed"]
        == counters["shards.total"] - counters["shards.resumed"]
    )
