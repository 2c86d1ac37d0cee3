"""The run ledger, regression sentinel, event sinks, and exporter.

Covers the durability contract (append/replay across instances,
corruption eviction for truncated index lines and bit-flipped record
files), cross-run comparison (``runs diff`` over two real pipeline
runs), the sentinel's tolerance edges, heartbeat event streams, and
the OpenMetrics exposition's structural validity.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.events import (
    EVENTS_SCHEMA,
    CompositeEventSink,
    EventRecorder,
    JsonlEventSink,
    TTYProgressSink,
    read_events,
)
from repro.obs.exporters import (
    metric_name,
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    RunRecord,
    arena_record,
    data_fault_digest,
    diff_records,
    format_diff,
    format_runs_table,
    ledger_key,
)
from repro.obs.sentinel import (
    Tolerances,
    check_run,
    compare,
    format_sentinel,
)


def _record(
    wall: float = 1.0,
    key: str = "k" * 32,
    kind: str = "pipeline",
    rss: int = 50_000_000,
    hits: int = 3,
    misses: int = 1,
    stages: dict[str, float] | None = None,
) -> RunRecord:
    stages = stages if stages is not None else {"inspect": 0.4, "pivot": 0.01}
    return RunRecord(
        kind=kind,
        key=key,
        label="test",
        recorded_at="2026-08-09T00:00:00+00:00",
        backend="serial",
        jobs=1,
        wall_seconds=wall,
        stages=[
            {"name": name, "wall_seconds": seconds, "cached": False}
            for name, seconds in stages.items()
        ],
        funnel={"n_hijacked": 4},
        cache={"hits": hits, "misses": misses, "stores": misses,
               "bytes_read": 100, "bytes_written": 50},
        memory={"peak_rss_bytes": rss, "tracemalloc": False},
        config_digest="c" * 32,
    )


# -- append / replay -----------------------------------------------------------


def test_append_assigns_sequential_unique_run_ids(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    first = ledger.append(_record(wall=1.0))
    second = ledger.append(_record(wall=1.0))  # identical content
    assert first.startswith("000000-")
    assert second.startswith("000001-")
    assert first != second
    # Identical content dedupes on disk but both index entries survive.
    assert len(ledger.entries()) == 2


def test_replay_from_fresh_instance_reads_everything(tmp_path):
    root = tmp_path / "ledger"
    writer = RunLedger(root)
    ids = [writer.append(_record(wall=float(i + 1))) for i in range(3)]
    reader = RunLedger(root)
    records = reader.records()
    assert [r.run_id for r in records] == ids
    assert [r.wall_seconds for r in records] == [1.0, 2.0, 3.0]
    assert reader.evicted == 0


def test_load_by_id_and_unique_prefix(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    run_id = ledger.append(_record())
    assert ledger.load(run_id).run_id == run_id
    assert ledger.load(run_id[:8]).run_id == run_id
    assert ledger.load("ffffff-nope") is None


def test_records_filters_by_kind_and_key(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record(kind="pipeline", key="a" * 32))
    ledger.append(_record(kind="arena", key="b" * 32))
    ledger.append(_record(kind="pipeline", key="b" * 32))
    assert len(ledger.records(kind="pipeline")) == 2
    assert len(ledger.records(key="b" * 32)) == 2
    assert len(ledger.records(kind="arena", key="b" * 32)) == 1
    latest = ledger.latest(kind="pipeline")
    assert latest.key == "b" * 32


def test_record_files_are_content_addressed(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record())
    entry = ledger.entries()[0]
    assert entry.path.startswith("records/")
    blob = json.loads((ledger.root / entry.path).read_text())
    assert blob["schema"] == LEDGER_SCHEMA
    assert blob["run_id"] == entry.run_id


def test_summary_counts_runs_by_kind(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record(kind="pipeline"))
    ledger.append(_record(kind="arena"))
    summary = ledger.summary()
    assert summary["runs"] == 2
    assert summary["kinds"] == {"pipeline": 1, "arena": 1}
    assert summary["last_run_id"].startswith("000001-")


# -- corruption eviction -------------------------------------------------------


def test_truncated_index_line_is_evicted_not_fatal(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    keep = ledger.append(_record(wall=1.0))
    ledger.append(_record(wall=2.0))
    # Truncate the last index line mid-JSON, as a crashed append would.
    text = ledger.index_path.read_text()
    lines = text.splitlines()
    ledger.index_path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
    fresh = RunLedger(tmp_path / "ledger")
    records = fresh.records()
    assert [r.run_id for r in records] == [keep]
    assert fresh.evicted == 1


def test_bad_checksum_evicts_the_record_file(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record(wall=1.0))
    entry = ledger.entries()[0]
    path = ledger.root / entry.path
    path.write_text(path.read_text().replace("1.0", "9.0"))  # bit-flip
    assert ledger.load_entry(entry) is None
    assert ledger.evicted >= 1
    assert not path.exists()  # quarantined
    assert ledger.records() == []


def test_index_line_with_wrong_schema_is_skipped(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record())
    with ledger.index_path.open("a") as handle:
        handle.write(json.dumps({"schema": "repro-ledger/99", "seq": 1}) + "\n")
        handle.write("5\n")  # valid JSON, but not an entry object
    assert len(ledger.entries()) == 1
    assert ledger.evicted == 2
    assert ledger.append(_record()).startswith("000001-")


def test_gc_keeps_newest_and_removes_orphans(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    for i in range(4):
        ledger.append(_record(wall=float(i + 1)))
    orphan = ledger.root / "records" / "zz"
    orphan.mkdir(parents=True)
    # glob pattern is records/??/*.json, so land the orphan there
    (ledger.root / "records" / "ab").mkdir(exist_ok=True)
    (ledger.root / "records" / "ab" / "orphan.json").write_text("{}")
    result = ledger.gc(keep=2)
    assert result["kept"] == 2
    assert result["dropped_entries"] == 2
    records = ledger.records()
    assert [r.wall_seconds for r in records] == [3.0, 4.0]
    assert not (ledger.root / "records" / "ab" / "orphan.json").exists()


def test_append_after_torn_line_keeps_its_entry_and_a_fresh_seq(tmp_path):
    """A kill mid-append leaves an unterminated last line: the next
    append must not glue itself onto it (and be evicted with it), and
    seqs must stay unique."""
    ledger = RunLedger(tmp_path / "ledger")
    for i in range(3):
        ledger.append(_record(wall=float(i + 1)))
    with ledger.index_path.open("a", encoding="utf-8") as handle:
        handle.write('{"schema": "repro-ledger/1", "seq": 3, "run_')
    later = [ledger.append(_record(wall=float(i + 4))) for i in range(2)]
    assert [e.seq for e in ledger.entries()] == [0, 1, 2, 3, 4]
    assert ledger.evicted == 1  # the torn line alone
    assert [id_.split("-")[0] for id_ in later] == ["000003", "000004"]
    assert [r.wall_seconds for r in ledger.records()] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_append_after_gc_continues_the_seq(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    for i in range(5):
        ledger.append(_record(wall=float(i + 1)))
    ledger.gc(keep=2)
    run_id = ledger.append(_record(wall=6.0))
    assert run_id.startswith("000005-")
    assert [e.seq for e in ledger.entries()] == [3, 4, 5]


def test_append_reads_the_index_tail_not_the_history(tmp_path, monkeypatch):
    """The next seq comes from the index's last readable line, so an
    append costs the same however long the ledger's history is."""
    ledger = RunLedger(tmp_path / "ledger")
    for i in range(40):  # more lines than the tail window holds
        ledger.append(_record(wall=float(i + 1)))
    assert ledger.index_path.stat().st_size > 4096

    def no_full_parse(self):
        raise AssertionError("append parsed the whole index")

    monkeypatch.setattr(RunLedger, "entries", no_full_parse)
    assert ledger.append(_record(wall=41.0)).startswith("000040-")


def test_a_tail_of_corrupt_lines_falls_back_to_the_whole_index(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    for i in range(3):
        ledger.append(_record(wall=float(i + 1)))
    with ledger.index_path.open("a", encoding="utf-8") as handle:
        for _ in range(120):  # no readable line left in the tail window
            handle.write('{"schema": "repro-ledger/1", "seq": 99, "run_\n')
    assert ledger.index_path.stat().st_size > 4096 + 3 * 400
    assert ledger.append(_record(wall=4.0)).startswith("000003-")
    assert [e.seq for e in ledger.entries()] == [0, 1, 2, 3]


# -- keys ----------------------------------------------------------------------


def test_ledger_key_ignores_worker_fault_channels():
    """A slowdown-injected run must share the clean run's key so the
    sentinel can flag it against the clean baseline."""
    from repro.faults import FaultPlan

    clean = FaultPlan.from_spec(None)
    slow = FaultPlan.from_spec("workers.slow=1.0,workers.slow_ms=200", seed=3)
    data = FaultPlan.from_spec("scan.drop_weeks=0.2", seed=3)

    def key(plan):
        return ledger_key(
            "pipeline", "hunt", config_digest="c" * 32,
            faults_digest=data_fault_digest(plan), backend="serial", jobs=1,
        )

    assert key(clean) == key(slow)
    assert key(clean) != key(data)


def test_ledger_key_varies_with_backend_and_config():
    base = dict(config_digest="c" * 32, faults_digest="", jobs=1)
    serial = ledger_key("pipeline", "hunt", backend="serial", **base)
    pool = ledger_key("pipeline", "hunt", backend="process-pool", **base)
    other_cfg = ledger_key(
        "pipeline", "hunt", backend="serial",
        config_digest="d" * 32, faults_digest="", jobs=1,
    )
    assert len({serial, pool, other_cfg}) == 3


# -- diff ----------------------------------------------------------------------


def test_diff_covers_stage_time_memory_and_cache(tmp_path):
    old = _record(wall=1.0, rss=50_000_000, hits=0, misses=4,
                  stages={"inspect": 0.4})
    new = _record(wall=2.0, rss=60_000_000, hits=4, misses=0,
                  stages={"inspect": 0.9})
    old.run_id, new.run_id = "000000-aa", "000001-bb"
    rows = {row["metric"]: row for row in diff_records(old, new)}
    assert rows["wall_seconds"]["delta"] == pytest.approx(1.0)
    assert rows["stage.inspect.wall_seconds"]["delta_pct"] == pytest.approx(125.0)
    assert rows["peak_rss_bytes"]["delta"] == 10_000_000
    assert rows["cache.hits"]["delta"] == 4
    text = format_diff(old, new)
    assert "stage.inspect.wall_seconds" in text
    assert "+125.0%" in text


def test_diff_on_two_real_seeded_runs(tmp_path):
    """Two pipeline runs recorded from their manifests diff cleanly."""
    from repro.world.scenarios import build_pack

    ledger = RunLedger(tmp_path / "ledger")
    study = build_pack("small", seed=7, n_background=10)
    study.profile_pipeline(ledger=ledger)
    study.profile_pipeline(ledger=ledger)
    records = ledger.records()
    assert len(records) == 2
    assert records[0].key == records[1].key
    assert records[0].report_digest == records[1].report_digest
    assert records[0].funnel  # the pipeline attached its funnel summary
    rows = {row["metric"] for row in diff_records(records[0], records[1])}
    assert "wall_seconds" in rows
    assert "peak_rss_bytes" in rows
    assert any(metric.startswith("stage.") for metric in rows)


def test_format_runs_table_lists_both_runs(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record(wall=1.0))
    ledger.append(_record(wall=2.0))
    table = format_runs_table(ledger.records())
    assert "000000-" in table and "000001-" in table
    assert "pipeline" in table


# -- sentinel ------------------------------------------------------------------


def test_sentinel_passes_clean_rerun():
    baseline = [_record(wall=1.0), _record(wall=1.1), _record(wall=0.9)]
    candidate = _record(wall=1.05)
    report = compare(candidate, baseline)
    assert report.ok
    assert "PASS" in format_sentinel(report)


def test_sentinel_flags_total_time_regression():
    report = compare(_record(wall=2.0), [_record(wall=1.0)])
    assert not report.ok
    assert any(r.metric == "wall_seconds" for r in report.regressions)
    assert "REGRESS" in format_sentinel(report)
    assert "FAIL" in format_sentinel(report)


def test_sentinel_tolerance_edge_is_inclusive():
    """Exactly at the limit passes; one epsilon beyond fails."""
    tolerances = Tolerances(total_time=0.5)
    at_limit = compare(_record(wall=1.5), [_record(wall=1.0)], tolerances)
    beyond = compare(_record(wall=1.5001), [_record(wall=1.0)], tolerances)
    assert at_limit.ok
    assert not beyond.ok


def test_sentinel_is_one_sided():
    """Faster, slimmer, higher-hit-rate candidates never fail."""
    baseline = [_record(wall=2.0, rss=80_000_000, hits=1, misses=3)]
    candidate = _record(wall=0.5, rss=40_000_000, hits=4, misses=0)
    assert compare(candidate, baseline).ok


def test_sentinel_flags_memory_and_cache_rate_drops():
    baseline = [_record(rss=50_000_000, hits=4, misses=0)]
    worse_memory = compare(_record(rss=90_000_000), baseline)
    assert any(r.metric == "peak_rss_bytes" for r in worse_memory.regressions)
    cold_cache = compare(_record(hits=0, misses=4), baseline)
    assert any(r.metric == "cache_hit_rate" for r in cold_cache.regressions)


def test_sentinel_skips_micro_stages():
    baseline = [_record(stages={"pivot": 0.001})]
    candidate = _record(stages={"pivot": 0.040})  # 40x but microscopic
    report = compare(candidate, baseline)
    assert not any("stage.pivot" in r.metric for r in report.rows)
    assert report.ok


def test_sentinel_vacuous_pass_on_thin_history(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record())
    report = check_run(ledger)
    assert report.ok
    assert report.skipped_reason is not None
    assert "vacuous" in format_sentinel(report)


def test_check_run_uses_matching_key_window_only(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record(wall=0.1, key="other" + "x" * 27))  # different key
    ledger.append(_record(wall=1.0))
    ledger.append(_record(wall=1.9))  # within +100% of 1.0? no: default 0.5
    report = check_run(ledger, tolerances=Tolerances(total_time=0.5))
    assert not report.ok  # compared against the 1.0 run, not the 0.1 one
    assert report.baseline_ids == [ledger.records()[1].run_id]


def test_check_run_arena_f1_regression(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")

    def arena(f1: float) -> RunRecord:
        return arena_record(
            key="a" * 32, label="arena:small",
            leaderboard=[{"detector": "paper-funnel", "mean_f1": f1}],
            wall_seconds=1.0,
        )

    ledger.append(arena(0.95))
    ledger.append(arena(0.80))
    report = check_run(ledger)
    assert any(r.metric == "arena_mean_f1" for r in report.regressions)
    ledger.append(arena(0.94))
    # A fresh candidate within tolerance of the median passes.
    assert check_run(ledger).ok


def test_check_run_unknown_candidate_raises(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record())
    with pytest.raises(ValueError, match="unknown"):
        check_run(ledger, run_id="zzzzzz-0000")


# -- events --------------------------------------------------------------------


def test_executor_emits_full_heartbeat_sequence(tmp_path):
    from repro.world.scenarios import build_pack

    recorder = EventRecorder()
    study = build_pack("small", seed=7, n_background=10)
    _report, metrics = study.profile_pipeline(events=recorder)
    starts = recorder.of("run_start")
    assert len(starts) == 1
    assert starts[0]["total_stages"] == len(metrics.stages)
    assert len(recorder.of("stage_start")) == len(metrics.stages)
    finishes = recorder.of("stage_finish")
    assert [e["stage"] for e in finishes] == [s.name for s in metrics.stages]
    assert all("eta_seconds" in e and "ts" in e for e in finishes)
    assert recorder.of("chunk")  # at least the parallel stages chunk
    assert recorder.of("run_finish")[0]["wall_seconds"] > 0


def test_jsonl_sink_writes_header_and_replayable_stream(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlEventSink(path)
    sink.emit({"event": "run_start", "ts": 1.0})
    sink.emit({"event": "run_finish", "ts": 2.0})
    sink.close()
    events = read_events(path)
    assert events[0]["schema"] == EVENTS_SCHEMA
    assert [e.get("event") for e in events[1:]] == ["run_start", "run_finish"]


def test_read_events_rejects_foreign_stream(tmp_path):
    path = tmp_path / "not-events.jsonl"
    path.write_text('{"hello": "world"}\n')
    with pytest.raises(ValueError, match="not a"):
        read_events(path)


def test_tty_sink_overwrites_one_line_and_clears():
    stream = io.StringIO()
    sink = TTYProgressSink(stream)
    sink.emit({"event": "stage_start", "stage": "inspect", "index": 1, "total": 2})
    sink.emit({
        "event": "stage_finish", "stage": "inspect", "index": 1, "total": 2,
        "wall_seconds": 0.5, "cached": False, "eta_seconds": 0.5,
    })
    sink.emit({"event": "run_finish"})
    text = stream.getvalue()
    assert "\r\x1b[2K" in text
    assert "inspect" in text
    assert text.endswith("\r\x1b[2K")  # cleared at run end


def test_composite_sink_fans_out():
    a, b = EventRecorder(), EventRecorder()
    sink = CompositeEventSink([a, b])
    sink.emit({"event": "run_start"})
    sink.close()
    assert a.events == b.events == [{"event": "run_start"}]


# -- exporter ------------------------------------------------------------------


def test_metric_name_mapping():
    assert metric_name("cache.bytes_read") == "repro_cache_bytes_read"
    assert metric_name("kernel.inspect.seconds") == "repro_kernel_inspect_seconds"


def test_render_openmetrics_covers_funnel_cache_and_retry_metrics(tmp_path):
    """The acceptance-criteria exposition: funnel, cache, fault-retry
    metrics all present and structurally valid."""
    snapshot = {
        "counters": {
            "cache.hits": 3, "cache.misses": 1,
            "cache.bytes_read": 1024, "cache.bytes_written": 256,
            "faults.worker_retries": 2,
        },
        "gauges": {"report.findings": 4.0},
        "histograms": {
            "kernel.inspect.seconds": {
                "count": 3, "sum": 0.3, "min": 0.05, "max": 0.2,
                "buckets": [0] * 6 + [1, 1, 1] + [0] * 6,
            }
        },
    }
    text = render_openmetrics(
        snapshot, funnel={"n_maps": 100, "n_hijacked": 3}
    )
    assert validate_openmetrics(text) == []
    assert "repro_cache_hits_total 3" in text
    assert "repro_cache_bytes_read_total 1024" in text
    assert "repro_faults_worker_retries_total 2" in text
    assert "repro_funnel_n_hijacked 3" in text
    assert "# TYPE repro_kernel_inspect_seconds histogram" in text
    # Buckets are cumulative and end with +Inf == count.
    assert 'repro_kernel_inspect_seconds_bucket{le="+Inf"} 3' in text
    assert text.rstrip().endswith("# EOF")


def test_render_openmetrics_includes_ledger_summary(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    ledger.append(_record(wall=1.5))
    text = render_openmetrics(None, ledger=ledger)
    assert validate_openmetrics(text) == []
    assert "repro_ledger_runs 1" in text
    assert 'repro_ledger_runs_by_kind{kind="pipeline"} 1' in text
    assert "repro_ledger_last_run_wall_seconds" in text
    assert "repro_ledger_last_run_stage_wall_seconds" in text


def test_validate_openmetrics_catches_structural_damage():
    assert validate_openmetrics("repro_x 1\n") != []  # no TYPE, no EOF
    good = "# TYPE repro_x gauge\nrepro_x 1\n# EOF"
    assert validate_openmetrics(good) == []
    assert validate_openmetrics(good.replace(" 1", " banana")) != []


def test_exporter_round_trips_real_manifest_metrics(tmp_path):
    from repro.world.scenarios import build_pack

    study = build_pack("small", seed=7, n_background=10)
    _report, metrics = study.profile_pipeline()
    text = render_openmetrics(metrics.metrics, funnel=metrics.funnel)
    assert validate_openmetrics(text) == []
    assert "repro_funnel_n_maps" in text
    assert "repro_kernel_" in text  # per-kernel latency histograms


# -- executor integration ------------------------------------------------------


def test_cache_counters_reach_registry_and_ledger(tmp_path):
    """Warm runs surface cache.* counters and the ledger records them."""
    from repro.cache import StageCache
    from repro.world.scenarios import build_pack

    cache = StageCache(tmp_path / "cache")
    ledger = RunLedger(tmp_path / "ledger")
    study = build_pack("small", seed=7, n_background=10)
    _r1, cold = study.profile_pipeline(cache=cache, ledger=ledger)
    _r2, warm = study.profile_pipeline(cache=cache, ledger=ledger)
    assert cold.metrics["counters"]["cache.stores"] > 0
    assert cold.metrics["counters"]["cache.bytes_written"] > 0
    assert warm.metrics["counters"]["cache.hits"] > 0
    assert warm.metrics["counters"]["cache.bytes_read"] > 0
    records = ledger.records()
    assert records[0].cache["stores"] == cold.cache["stores"]
    assert records[1].cache["hits"] == warm.cache["hits"]
    assert records[1].cache_hit_rate > records[0].cache_hit_rate


def test_memory_sampling_lands_in_manifest(tmp_path):
    from repro.world.scenarios import build_pack

    study = build_pack("small", seed=7, n_background=10)
    _report, plain = study.profile_pipeline()
    assert plain.memory["tracemalloc"] is False
    assert plain.memory["peak_rss_bytes"] > 0
    assert all(
        s.memory and s.memory["peak_rss_bytes"] > 0 for s in plain.stages
    )
    _report, traced = study.profile_pipeline(memory=True)
    assert traced.memory["tracemalloc"] is True
    assert traced.memory["tracemalloc_peak_bytes"] > 0
    assert all(
        "tracemalloc_delta_bytes" in s.memory for s in traced.stages
    )


def test_ledger_append_failure_never_fails_the_run(tmp_path, monkeypatch):
    from repro.world.scenarios import build_pack

    ledger = RunLedger(tmp_path / "ledger")
    monkeypatch.setattr(
        RunLedger, "append",
        lambda self, record: (_ for _ in ()).throw(OSError("disk full")),
    )
    study = build_pack("small", seed=7, n_background=10)
    report, _metrics = study.profile_pipeline(ledger=ledger)  # must not raise
    assert report.findings is not None


def test_arena_run_records_leaderboard(tmp_path):
    from repro.detect.arena import run_arena

    ledger = RunLedger(tmp_path / "ledger")
    result = run_arena(
        packs=["small"], detectors=["funnel"],
        seed=7, n_background=10, ledger=ledger,
    )
    record = ledger.latest(kind="arena")
    assert record is not None
    assert record.leaderboard == result.leaderboard()
    assert record.leaderboard[0]["detector"] == "funnel"
