"""Golden-report regression harness.

The canonical encodings of the paper-scenario reports for seeds 7, 11,
and 13 are pinned under ``tests/golden/``.  Any behavioral drift in the
funnel — a different verdict, a reordered finding, a changed prune —
shows up as a byte diff against the pinned file, on either backend, and
the empty fault plan is required to be indistinguishable from no plan
at all.  The stage cache rides the same harness: cold (cache-filling)
and warm (cache-satisfied) runs must both match the pinned bytes, and
entries must be portable across backends.

A fault-degraded variant rides along: seed 11's study run under the
canonical data-channel plan (``GOLDEN_FAULT_SPEC``) is pinned too, so
the degraded funnel — blackout-holed pDNS, lagged CT, dropped scan
weeks — is locked byte-for-byte across backends and cache temperature
just like the pristine runs.

After an intentional behavior change, regenerate with::

    python -m repro.cli golden --update
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import (
    GOLDEN_BACKGROUND,
    GOLDEN_FAULT_SEED,
    GOLDEN_FAULT_SPEC,
    GOLDEN_SEEDS,
)
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.faults import FaultPlan, FaultSpec
from repro.io.golden import (
    GOLDEN_SCHEMA,
    encode_report,
    golden_faults_filename,
    golden_filename,
    report_digest,
)
from repro.world.scenarios import paper_study

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Both worker start methods the pool backend supports.  Fork inherits
#: the inputs copy-on-write; spawn ships them once through shared
#: memory — the golden bytes must not depend on which one ran.
START_METHODS = ("fork", "spawn")

_STUDIES: dict[int, object] = {}


def _study(seed: int):
    if seed not in _STUDIES:
        _STUDIES[seed] = paper_study(seed=seed, n_background=GOLDEN_BACKGROUND)
    return _STUDIES[seed]


def _golden_text(seed: int) -> str:
    path = GOLDEN_DIR / golden_filename(seed)
    assert path.exists(), (
        f"{path} missing — generate with `python -m repro.cli golden --update`"
    )
    return path.read_text()


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_golden_files_carry_schema(seed):
    data = json.loads(_golden_text(seed))
    assert data["schema"] == GOLDEN_SCHEMA
    assert data["findings"], "a pinned report with no findings is suspicious"


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_serial_run_matches_golden(seed):
    report = _study(seed).run_pipeline(backend=SerialBackend())
    assert encode_report(report) == _golden_text(seed)


#: The seed-7 golden report's ledger digest.  Ledger records compare
#: digests across runs, so a digest that moves reads as drift against
#: every older record.
SEED7_REPORT_DIGEST = "d7ffa22bd309d0ffcd818e3a4d5a89d4"


def test_golden_report_digest_is_pinned():
    report = _study(7).run_pipeline(backend=SerialBackend())
    assert encode_report(report) == _golden_text(7)
    assert report_digest(report) == SEED7_REPORT_DIGEST


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_process_pool_run_matches_golden(seed, start_method):
    report = _study(seed).run_pipeline(
        backend=ProcessPoolBackend(jobs=2, start_method=start_method)
    )
    assert encode_report(report) == _golden_text(seed)


@pytest.mark.parametrize("start_method", START_METHODS)
def test_shard_partitioned_run_matches_golden(start_method):
    """Shard geometry is invisible in the bytes: narrow explicit shards
    (``chunk_size=3``, dozens of ``(lo, hi)`` ranges instead of the
    default ``jobs * 4``) reproduce the pin under either start method."""
    report = _study(GOLDEN_SEEDS[0]).run_pipeline(
        backend=ProcessPoolBackend(
            jobs=2, chunk_size=3, start_method=start_method
        )
    )
    assert encode_report(report) == _golden_text(GOLDEN_SEEDS[0])


@pytest.mark.parametrize(
    "faults",
    [None, "", FaultSpec(), FaultPlan.from_spec(None, seed=99)],
    ids=["none", "empty-string", "empty-spec", "empty-plan"],
)
def test_empty_fault_plan_is_byte_identical_serial(faults):
    """The tentpole invariant: an empty plan changes nothing, byte for byte."""
    report = _study(GOLDEN_SEEDS[0]).run_pipeline(
        backend=SerialBackend(), faults=faults
    )
    assert encode_report(report) == _golden_text(GOLDEN_SEEDS[0])


def test_empty_fault_plan_is_byte_identical_process_pool():
    report = _study(GOLDEN_SEEDS[0]).run_pipeline(
        backend=ProcessPoolBackend(jobs=2), faults=FaultPlan.from_spec(None)
    )
    assert encode_report(report) == _golden_text(GOLDEN_SEEDS[0])


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_cold_then_warm_cache_matches_golden_serial(seed, tmp_path):
    """The cache tentpole invariant, differentially: a cold run filling
    the cache and a warm run satisfied from it are both byte-identical
    to the pinned report."""
    from repro.cache import StageCache

    cache = StageCache(tmp_path / "cache")
    golden = _golden_text(seed)
    cold, cold_metrics = _study(seed).profile_pipeline(
        backend=SerialBackend(), cache=cache
    )
    assert encode_report(cold) == golden
    assert cold_metrics.cache["hits"] == 0
    assert cold_metrics.cache["stores"] > 0
    warm, warm_metrics = _study(seed).profile_pipeline(
        backend=SerialBackend(), cache=cache
    )
    assert encode_report(warm) == golden
    assert warm_metrics.cache["misses"] == 0
    assert warm_metrics.cache["stores"] == 0
    assert warm_metrics.cache["hits"] == cold_metrics.cache["stores"]


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_cold_then_warm_cache_matches_golden_process_pool(seed, tmp_path):
    from repro.cache import StageCache

    cache = StageCache(tmp_path / "cache")
    golden = _golden_text(seed)
    cold = _study(seed).run_pipeline(
        backend=ProcessPoolBackend(jobs=2), cache=cache
    )
    assert encode_report(cold) == golden
    warm, warm_metrics = _study(seed).profile_pipeline(
        backend=ProcessPoolBackend(jobs=2), cache=cache
    )
    assert encode_report(warm) == golden
    assert warm_metrics.cache["misses"] == 0


def test_cache_entries_are_backend_portable(tmp_path):
    """Entries written by a serial run satisfy a process-pool run (and
    the other way around) — fingerprints carry no backend material."""
    from repro.cache import StageCache

    cache = StageCache(tmp_path / "cache")
    golden = _golden_text(GOLDEN_SEEDS[0])
    _study(GOLDEN_SEEDS[0]).run_pipeline(backend=SerialBackend(), cache=cache)
    warm, metrics = _study(GOLDEN_SEEDS[0]).profile_pipeline(
        backend=ProcessPoolBackend(jobs=2), cache=cache
    )
    assert encode_report(warm) == golden
    assert metrics.cache["misses"] == 0
    assert metrics.cache["hits"] > 0


def _fault_golden_text() -> str:
    path = GOLDEN_DIR / golden_faults_filename(GOLDEN_FAULT_SEED)
    assert path.exists(), (
        f"{path} missing — generate with `python -m repro.cli golden --update`"
    )
    return path.read_text()


def _fault_plan() -> FaultPlan:
    return FaultPlan.from_spec(GOLDEN_FAULT_SPEC, seed=GOLDEN_FAULT_SEED)


def test_fault_golden_is_a_real_degradation():
    """The degraded pin must differ from the fault-free pin for the same
    seed and still carry findings — a no-op or wiped-out plan pins
    nothing worth pinning."""
    degraded = json.loads(_fault_golden_text())
    pristine = json.loads(_golden_text(GOLDEN_FAULT_SEED))
    assert degraded["schema"] == GOLDEN_SCHEMA
    assert degraded["findings"]
    assert degraded != pristine


def test_fault_degraded_run_matches_golden_serial():
    report = _study(GOLDEN_FAULT_SEED).run_pipeline(
        backend=SerialBackend(), faults=_fault_plan()
    )
    assert encode_report(report) == _fault_golden_text()


@pytest.mark.parametrize("start_method", START_METHODS)
def test_fault_degraded_run_matches_golden_process_pool(start_method):
    """Degradation happens before fan-out, so the pooled funnel walks
    the same degraded tables and must reproduce the pin byte for byte —
    under fork and under spawn's shared-memory input transport alike."""
    report = _study(GOLDEN_FAULT_SEED).run_pipeline(
        backend=ProcessPoolBackend(jobs=2, start_method=start_method),
        faults=_fault_plan(),
    )
    assert encode_report(report) == _fault_golden_text()


def test_fault_degraded_cold_then_warm_cache_matches_golden(tmp_path):
    """The degraded world is cacheable too: fault parameters are part of
    the stage fingerprints, so a warm run restores the degraded report —
    including the classify/assemble wire products — byte-identically."""
    from repro.cache import StageCache

    cache = StageCache(tmp_path / "cache")
    golden = _fault_golden_text()
    cold, cold_metrics = _study(GOLDEN_FAULT_SEED).profile_pipeline(
        backend=SerialBackend(), faults=_fault_plan(), cache=cache
    )
    assert encode_report(cold) == golden
    assert cold_metrics.cache["stores"] > 0
    warm, warm_metrics = _study(GOLDEN_FAULT_SEED).profile_pipeline(
        backend=SerialBackend(), faults=_fault_plan(), cache=cache
    )
    assert encode_report(warm) == golden
    assert warm_metrics.cache["misses"] == 0
    by_name = {s.name: s for s in warm_metrics.stages}
    for name in ("classify", "shortlist", "inspect", "assemble"):
        assert by_name[name].cached is True


def test_fault_cache_does_not_collide_with_pristine(tmp_path):
    """A cache shared between a degraded and a fault-free run of the
    same study must never cross-serve entries."""
    from repro.cache import StageCache

    cache = StageCache(tmp_path / "cache")
    degraded = _study(GOLDEN_FAULT_SEED).run_pipeline(
        backend=SerialBackend(), faults=_fault_plan(), cache=cache
    )
    assert encode_report(degraded) == _fault_golden_text()
    pristine = _study(GOLDEN_FAULT_SEED).run_pipeline(
        backend=SerialBackend(), cache=cache
    )
    assert encode_report(pristine) == _golden_text(GOLDEN_FAULT_SEED)


def test_traced_run_is_byte_identical_serial():
    """Observability must be read-only: an enabled tracer cannot change
    a single byte of the report."""
    from repro.obs import Tracer

    tracer = Tracer()
    report, _metrics = _study(GOLDEN_SEEDS[0]).profile_pipeline(
        backend=SerialBackend(), events=tracer
    )
    assert encode_report(report) == _golden_text(GOLDEN_SEEDS[0])
    assert tracer.spans  # it really was tracing


def test_traced_run_is_byte_identical_process_pool():
    from repro.obs import Tracer

    tracer = Tracer()
    report, _metrics = _study(GOLDEN_SEEDS[0]).profile_pipeline(
        backend=ProcessPoolBackend(jobs=2), events=tracer
    )
    assert encode_report(report) == _golden_text(GOLDEN_SEEDS[0])
    assert tracer.worker_pids()


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_ledger_and_events_run_is_byte_identical_serial(seed, tmp_path):
    """The telemetry layer is read-only too: recording a run into the
    ledger while streaming heartbeat events cannot change a byte."""
    from repro.obs import RunLedger
    from repro.obs.events import JsonlEventSink

    ledger = RunLedger(tmp_path / "ledger")
    sink = JsonlEventSink(tmp_path / "events.jsonl")
    try:
        report, _metrics = _study(seed).profile_pipeline(
            backend=SerialBackend(), events=sink, ledger=ledger, memory=True
        )
    finally:
        sink.close()
    assert encode_report(report) == _golden_text(seed)
    entry = ledger.latest()
    assert entry is not None
    record = ledger.load(entry.run_id)
    assert record.report_digest  # the ledger pinned what it watched


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_ledger_and_events_run_is_byte_identical_process_pool(seed, tmp_path):
    from repro.obs import RunLedger
    from repro.obs.events import JsonlEventSink, read_events

    ledger = RunLedger(tmp_path / "ledger")
    sink = JsonlEventSink(tmp_path / "events.jsonl")
    try:
        report, _metrics = _study(seed).profile_pipeline(
            backend=ProcessPoolBackend(jobs=2), events=sink, ledger=ledger
        )
    finally:
        sink.close()
    assert encode_report(report) == _golden_text(seed)
    kinds = [e.get("event") for e in read_events(tmp_path / "events.jsonl")]
    assert "run_finish" in kinds
    assert ledger.latest() is not None


def test_fault_degraded_ledger_run_matches_golden_both_backends(tmp_path):
    """Seed 11 under the canonical data-channel plan, instrumented: the
    degraded pin survives ledger + events on both backends, and the two
    records share a report digest."""
    from repro.obs import RunLedger
    from repro.obs.events import JsonlEventSink

    ledger = RunLedger(tmp_path / "ledger")
    digests = []
    for backend in (SerialBackend(), ProcessPoolBackend(jobs=2)):
        sink = JsonlEventSink(tmp_path / "events.jsonl")
        try:
            report, _metrics = _study(GOLDEN_FAULT_SEED).profile_pipeline(
                backend=backend, faults=_fault_plan(),
                events=sink, ledger=ledger,
            )
        finally:
            sink.close()
        assert encode_report(report) == _fault_golden_text()
        digests.append(ledger.load(ledger.latest().run_id).report_digest)
    assert digests[0] == digests[1]


# -- segment-backed goldens ----------------------------------------------------


def _segment_inputs(seed: int, directory: Path):
    from repro.core.pipeline import PipelineInputs
    from repro.segments import load_segment_inputs, write_segments

    write_segments(PipelineInputs.from_study(_study(seed)), directory)
    return load_segment_inputs(directory)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_segment_backed_run_matches_golden_serial(seed, tmp_path):
    """Storage is not semantics: the funnel over a mapped segment bundle
    reproduces the in-RAM pinned bytes exactly."""
    from repro.core.pipeline import HijackPipeline

    inputs = _segment_inputs(seed, tmp_path / "segments")
    report = HijackPipeline(inputs).run(SerialBackend())
    assert encode_report(report) == _golden_text(seed)


@pytest.mark.parametrize("start_method", START_METHODS)
def test_segment_backed_shard_pool_matches_golden(start_method, tmp_path):
    """The full new data plane at once — mapped segments, shard ranges,
    and (under spawn) shared-memory input transport — against the pin."""
    from repro.core.pipeline import HijackPipeline

    inputs = _segment_inputs(GOLDEN_SEEDS[0], tmp_path / "segments")
    backend = ProcessPoolBackend(jobs=2, start_method=start_method)
    report = HijackPipeline(inputs).run(backend)
    assert encode_report(report) == _golden_text(GOLDEN_SEEDS[0])


def test_segment_backed_cold_then_warm_cache_matches_golden(tmp_path):
    """Segment-backed inputs fingerprint identically to their in-RAM
    source, so a cache filled by an in-RAM run satisfies a segment-backed
    one (and the reports stay pinned)."""
    from repro.cache import StageCache
    from repro.core.pipeline import HijackPipeline

    cache = StageCache(tmp_path / "cache")
    golden = _golden_text(GOLDEN_SEEDS[0])
    _study(GOLDEN_SEEDS[0]).run_pipeline(backend=SerialBackend(), cache=cache)
    inputs = _segment_inputs(GOLDEN_SEEDS[0], tmp_path / "segments")
    warm, metrics = HijackPipeline(inputs).profile(
        SerialBackend(), cache=cache
    )
    assert encode_report(warm) == golden
    assert metrics.cache["misses"] == 0
    assert metrics.cache["hits"] > 0
