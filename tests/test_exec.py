"""The ``repro.exec`` subsystem and the redesigned pipeline API.

Covers the PR's contracts: serial and process-pool backends must
produce identical reports on multiple seeds, the run manifest must
record wall time and cardinalities for every funnel stage, and the
:class:`PipelineInputs` bundle must round-trip through an exported
study directory.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.pipeline import HijackPipeline, PipelineInputs, build_stages
from repro.core.types import Verdict
from repro.exec import (
    MANIFEST_SCHEMA,
    ProcessPoolBackend,
    RunMetrics,
    SerialBackend,
    format_run_metrics,
)
from repro.io import save_as2org, save_ct, save_pdns, save_scan_dataset
from repro.world.scenarios import paper_study

STAGE_NAMES = (
    "deployment_maps",
    "classify",
    "shortlist",
    "inspect",
    "pivot",
    "assemble",
)
#: The five funnel steps of the paper (assemble is bookkeeping).
FUNNEL_STAGES = STAGE_NAMES[:5]


# ---------------------------------------------------------------------------
# backend equivalence


@pytest.mark.parametrize("seed", [7, 11, 13])
def test_backends_produce_identical_reports(seed):
    study = paper_study(seed=seed, n_background=40)
    serial_report = study.run_pipeline(backend=SerialBackend())
    pool_report = study.run_pipeline(backend=ProcessPoolBackend(jobs=2))
    # Dataclass equality covers funnel, findings, classifications,
    # shortlist, inspections, pivots, and the attacker sets.
    assert serial_report == pool_report


def test_default_run_matches_serial_backend(small_study, small_report):
    assert small_study.run_pipeline(backend=SerialBackend()) == small_report


def _assert_contiguous_cover(ranges, n):
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    assert all(lo < hi for lo, hi in ranges)
    assert all(prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))


def test_pool_backend_chunking_is_deterministic():
    """Shards are contiguous ``(lo, hi)`` ranges covering ``range(n)`` in
    order, at most ``chunk_size`` wide, ``min(n, jobs * 4)`` of them by
    default — and a pure function of ``(n, jobs, chunk_size)``."""
    sized = ProcessPoolBackend(jobs=3, chunk_size=2)
    for n in (1, 2, 11, 100):
        ranges = sized._shard_ranges(n)
        assert ranges == sized._shard_ranges(n)
        assert ranges == ProcessPoolBackend(jobs=3, chunk_size=2)._shard_ranges(n)
        _assert_contiguous_cover(ranges, n)
        assert all(hi - lo <= 2 for lo, hi in ranges)
    default = ProcessPoolBackend(jobs=3)
    for n in (1, 5, 12, 13, 1000):
        ranges = default._shard_ranges(n)
        assert ranges == default._shard_ranges(n)
        _assert_contiguous_cover(ranges, n)
        assert len(ranges) == min(n, 3 * 4)


@pytest.mark.parametrize(
    ("keyword", "value"), [("partition", "hash"), ("shard_cache", False)]
)
def test_pool_backend_rejects_removed_modes(keyword, value):
    with pytest.raises(ValueError, match="removed"):
        ProcessPoolBackend(jobs=2, **{keyword: value})


def test_pool_backend_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        ProcessPoolBackend(jobs=2, chunk_size=0)


def test_pool_backend_requires_start():
    with pytest.raises(RuntimeError):
        ProcessPoolBackend(jobs=2).map("classify", [1])


# ---------------------------------------------------------------------------
# run metrics / manifest


@pytest.fixture(scope="module")
def profiled():
    study = paper_study(seed=7, n_background=40)
    return study.profile_pipeline(backend=SerialBackend())


def test_manifest_covers_all_funnel_stages(profiled):
    _report, metrics = profiled
    assert tuple(stage.name for stage in metrics.stages) == STAGE_NAMES
    for name in FUNNEL_STAGES:
        stage = metrics.stage(name)
        assert stage.wall_seconds >= 0.0
        assert stage.n_in >= 0 and stage.n_out >= 0
    assert metrics.wall_seconds > 0.0
    assert metrics.backend == "serial"


def test_manifest_funnel_matches_report(profiled):
    report, metrics = profiled
    assert metrics.funnel["n_maps"] == report.funnel.n_maps
    assert metrics.funnel["n_hijacked"] == len(report.hijacked())
    maps_stage = metrics.stage("deployment_maps")
    assert maps_stage.n_out == report.funnel.n_maps
    inspect_stage = metrics.stage("inspect")
    assert inspect_stage.n_in == len(report.shortlist)


def test_manifest_round_trips_through_json(profiled, tmp_path):
    _report, metrics = profiled
    path = tmp_path / "manifest.json"
    metrics.write(path)
    loaded = RunMetrics.read(path)
    assert loaded.to_dict() == metrics.to_dict()
    assert loaded.to_dict()["schema"] == MANIFEST_SCHEMA


def test_manifest_rejects_unknown_schema(profiled):
    _report, metrics = profiled
    payload = metrics.to_dict()
    payload["schema"] = "something/else"
    with pytest.raises(ValueError):
        RunMetrics.from_dict(payload)


def test_format_run_metrics_renders_every_stage(profiled):
    _report, metrics = profiled
    rendered = format_run_metrics(metrics)
    assert "run profile:" in rendered
    for name in STAGE_NAMES:
        assert name in rendered


def test_format_run_metrics_header_shows_chunk_size(profiled):
    _report, metrics = profiled
    header = format_run_metrics(metrics).splitlines()[0]
    assert "chunk_size=auto" in header  # SerialBackend leaves it unset
    explicit = RunMetrics(backend="process", jobs=2, chunk_size=16)
    assert "chunk_size=16" in format_run_metrics(explicit).splitlines()[0]


def test_serial_stage_utilization_uses_single_process_budget():
    """A serial stage only ever had one process to keep busy; charging
    it jobs × wall would cap its utilization at 1/jobs."""
    from repro.exec.metrics import StageStats, TaskEvent

    metrics = RunMetrics(backend="process", jobs=4)
    events = [TaskEvent(pid=1, seconds=1.5, items=10, kernel="pivot")]
    stats = StageStats(n_in=10, n_out=10)
    serial = metrics.add_stage("pivot", 2.0, stats, events, parallel=False)
    assert serial.utilization == pytest.approx(1.5 / 2.0)
    parallel = metrics.add_stage("classify", 2.0, stats, events, parallel=True)
    assert parallel.utilization == pytest.approx(1.5 / (4 * 2.0))


def test_pool_manifest_records_worker_activity():
    study = paper_study(seed=7, n_background=40)
    _report, metrics = study.profile_pipeline(backend=ProcessPoolBackend(jobs=2))
    assert metrics.backend == "process"
    assert metrics.jobs == 2
    maps_stage = metrics.stage("deployment_maps")
    assert maps_stage.tasks > 1  # sharded, not one lump
    assert 1 <= maps_stage.workers_used <= 2
    assert 0.0 <= maps_stage.utilization <= 1.0


# ---------------------------------------------------------------------------
# the PipelineInputs construction API


def test_pipeline_inputs_round_trip_from_directory(small_study, small_report, tmp_path):
    save_scan_dataset(small_study.scan, tmp_path / "scan.jsonl")
    save_pdns(small_study.pdns, tmp_path / "pdns.jsonl")
    save_ct(small_study.ct_log, small_study.revocations, tmp_path / "ct.jsonl")
    save_as2org(small_study.as2org, tmp_path / "as2org.jsonl")

    inputs = PipelineInputs.from_directory(tmp_path)
    report = HijackPipeline(inputs).run()
    # Routing/geo tables are not part of the export, so compare the
    # verdicts rather than whole findings (attacker annotations fall
    # back to the scan metadata).
    assert {f.domain: f.verdict for f in report.findings} == {
        f.domain: f.verdict for f in small_report.findings
    }
    assert report.funnel.n_maps == small_report.funnel.n_maps


def test_from_directory_reports_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing"):
        PipelineInputs.from_directory(tmp_path)


def test_legacy_constructor_removed(small_study):
    with pytest.raises(TypeError):
        HijackPipeline(
            small_study.scan,
            small_study.pdns,
            small_study.crtsh,
            small_study.as2org,
            small_study.periods,
            small_study.routing,
            small_study.geo,
        )


def test_new_constructor_does_not_warn(small_study):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        HijackPipeline(PipelineInputs.from_study(small_study))


def test_constructor_rejects_non_bundle(small_study):
    with pytest.raises(TypeError, match="ScanDataset"):
        HijackPipeline(small_study.scan)


# ---------------------------------------------------------------------------
# report lookups


def test_finding_for_matches_linear_scan(paper_report):
    for finding in paper_report.findings:
        assert paper_report.finding_for(finding.domain) is finding
    assert paper_report.finding_for("not-a-victim.example") is None


def test_by_verdict_partitions_findings(paper_report):
    by_verdict = [
        finding
        for verdict in Verdict
        for finding in paper_report.by_verdict(verdict)
    ]
    assert sorted(f.domain for f in by_verdict) == sorted(
        f.domain for f in paper_report.findings
    )
    assert paper_report.hijacked() == paper_report.by_verdict(Verdict.HIJACKED)
    assert paper_report.targeted() == paper_report.by_verdict(Verdict.TARGETED)


def test_build_stages_names_are_stable():
    assert tuple(stage.name for stage in build_stages()) == STAGE_NAMES
