"""The ``repro.obs`` observability layer.

Covers the layer's contracts: the tracer folds the executor's run events
into a run → stage → task-chunk span tree and exports valid Chrome
trace-event JSON, live or replayed from a run's event stream; a tracer
attached to no run stays empty; the metrics registry counts, merges, and drains correctly
across the worker boundary; and every identified domain carries a
provenance trail that survives the findings JSONL round trip.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exec import ProcessPoolBackend, SerialBackend
from repro.obs import (
    EVENTS_SCHEMA,
    EVIDENCE_KINDS,
    EvidenceRef,
    FunnelTransition,
    MetricsRegistry,
    Tracer,
    drain_worker_snapshot,
    format_provenance,
    get_registry,
    mark_worker,
    set_registry,
    transitions_from_dicts,
    transitions_to_dicts,
)
from repro.obs.memory import current_rss_bytes
from repro.obs.metrics import BUCKET_BOUNDS


# ---------------------------------------------------------------------------
# tracer


def _fold(*events: dict) -> Tracer:
    tracer = Tracer()
    for event in events:
        tracer.emit(event)
    return tracer


def _run_start(perf: float, pid: int = 4000) -> dict:
    return {"event": "run_start", "perf": perf, "pid": pid, "backend": "serial", "jobs": 1}


def _stage_start(name: str, perf: float) -> dict:
    return {"event": "stage_start", "perf": perf, "stage": name, "parallel": True}


def _finish(kind: str, perf: float) -> dict:
    return {"event": kind, "perf": perf}


class TestTracer:
    def test_span_nesting_records_parent_ids(self):
        tracer = _fold(
            _run_start(1.0),
            _stage_start("classify", 1.1),
            _finish("stage_finish", 1.4),
            _finish("run_finish", 1.5),
        )
        spans = tracer.spans
        assert [s.name for s in spans] == ["classify", "run"]  # completion order
        assert spans[0].parent_id == spans[1].span_id
        assert spans[1].parent_id is None
        assert spans[0].attrs == {"parallel": True}
        assert spans[1].attrs == {"backend": "serial", "jobs": 1}
        assert all(s.end >= s.start for s in spans)

    def test_event_attaches_to_innermost_open_span(self):
        tracer = _fold(
            _run_start(1.0),
            _stage_start("inspect", 1.1),
            {"event": "retry", "perf": 1.2, "stage": "inspect", "kernel": "inspect",
             "kind": "crash", "attempt": 1},
            {"event": "cache_hit", "perf": 1.3, "stage": "inspect", "fingerprint": "ab"},
            _finish("stage_finish", 1.4),
            _finish("run_finish", 1.5),
        )
        stage = next(s for s in tracer.spans if s.name == "inspect")
        assert [e.name for e in stage.events] == ["crash", "cache_hit"]
        assert stage.events[0].attrs == {"kernel": "inspect", "attempt": 1}
        assert stage.events[1].attrs == {"stage": "inspect", "fingerprint": "ab"}
        run = next(s for s in tracer.spans if s.name == "run")
        assert run.events == []

    def test_task_span_grafts_under_open_stage(self):
        chunk = {"event": "chunk", "perf": 3.0, "stage": "classify", "kernel": "classify",
                 "pid": 4242, "items": 7, "seconds": 1.5}
        tracer = _fold(
            _run_start(0.5),
            _stage_start("classify", 0.9),
            {**chunk, "start": 1.0, "end": 2.5},
            chunk,  # no worker-measured start/end: no span
            _finish("stage_finish", 3.0),
            _finish("run_finish", 3.1),
        )
        stage = next(s for s in tracer.spans if s.category == "stage")
        (task,) = [s for s in tracer.spans if s.category == "task"]
        assert task.name == "chunk:classify"
        assert task.parent_id == stage.span_id
        assert task.pid == 4242
        assert task.duration == pytest.approx(1.5)
        assert task.attrs == {"items": 7}
        assert tracer.worker_pids() == {4242}

    def test_disabled_tracer_is_inert(self):
        # Attached to no run: closing and instant events find no open span.
        tracer = _fold(
            {"event": "retry", "perf": 1.1, "stage": "classify", "kernel": "classify",
             "kind": "slow", "attempt": 0},
            {"event": "cache_hit", "perf": 1.1, "stage": "classify", "fingerprint": "ab"},
            _finish("stage_finish", 1.2),
            _finish("run_finish", 1.3),
        )
        assert tracer.spans == []
        # Unknown kinds, such as the JSONL stream's header, are ignored.
        tracer = _fold({"event": "header", "schema": EVENTS_SCHEMA}, {"event": "progress"})
        assert tracer.spans == []
        assert tracer.to_chrome()["traceEvents"] == []
        assert tracer.to_jsonl() == ""

    def test_jsonl_export_is_one_parseable_line_per_span(self):
        tracer = _fold(
            _run_start(1.0),
            _stage_start("stage", 1.1),
            _finish("stage_finish", 1.2),
            _finish("run_finish", 1.3),
        )
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 2
        rows = [json.loads(line) for line in lines]
        assert {row["category"] for row in rows} == {"run", "stage"}
        assert all(row["dur_us"] >= 0 for row in rows)
        assert min(row["ts_us"] for row in rows) == 0.0

    def test_chrome_export_shape(self):
        tracer = _fold(
            _run_start(1.0, pid=os.getpid()),
            _stage_start("inspect", 1.1),
            {"event": "retry", "perf": 1.2, "stage": "inspect", "kernel": "inspect",
             "kind": "crash", "attempt": 2},
            {"event": "chunk", "perf": 1.3, "stage": "inspect", "kernel": "inspect",
             "pid": 999, "items": 1, "seconds": 0.1, "start": 1.15, "end": 1.25},
            _finish("stage_finish", 1.4),
            _finish("run_finish", 1.5),
        )
        data = tracer.to_chrome()
        events = data["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"run", "inspect", "chunk:inspect"}
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in metadata} == {os.getpid(), 999}

    def test_write_exports_to_disk(self, tmp_path):
        tracer = _fold(_run_start(1.0), _finish("run_finish", 1.5))
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.spans.jsonl"
        tracer.write_chrome(chrome)
        tracer.write_jsonl(jsonl)
        assert json.loads(chrome.read_text())["traceEvents"]
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "run"


# ---------------------------------------------------------------------------
# metrics registry


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("a.hits")
        registry.inc("a.hits", 4)
        registry.set_gauge("a.level", 2.0)
        registry.set_gauge("a.level", 7.0)
        assert registry.counter("a.hits") == 5
        assert registry.counter("missing") == 0
        assert registry.gauge("a.level") == 7.0
        assert registry.gauge("missing") is None

    def test_histogram_buckets_account_for_every_observation(self):
        registry = MetricsRegistry()
        for value in (0.0001, 0.003, 0.2, 99.0):  # last lands in +inf slot
            registry.observe("k.seconds", value)
        data = registry.histogram("k.seconds")
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(99.2031)
        assert data["min"] == pytest.approx(0.0001)
        assert data["max"] == pytest.approx(99.0)
        assert len(data["buckets"]) == len(BUCKET_BOUNDS) + 1
        assert sum(data["buckets"]) == data["count"]
        assert data["buckets"][-1] == 1

    def test_snapshot_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        a.observe("h", 0.01)
        a.set_gauge("g", 1.0)
        b.inc("n", 3)
        b.inc("only_b")
        b.observe("h", 0.02)
        b.set_gauge("g", 5.0)
        a.merge(b.snapshot())
        assert a.counter("n") == 5
        assert a.counter("only_b") == 1
        assert a.histogram("h")["count"] == 2
        assert a.gauge("g") == 5.0  # last write wins

    def test_drain_resets_and_returns_none_when_empty(self):
        registry = MetricsRegistry()
        assert registry.drain() is None
        registry.inc("x")
        snapshot = registry.drain()
        assert snapshot["counters"] == {"x": 1}
        assert registry.empty
        assert registry.drain() is None

    def test_parent_process_never_drains_the_run_registry(self):
        """run_inline chunks must not ship deltas the reducer would
        merge back into the same registry (double counting)."""
        previous = get_registry()
        try:
            registry = set_registry(MetricsRegistry())
            registry.inc("stage.items", 10)
            assert drain_worker_snapshot() is None
            assert registry.counter("stage.items") == 10  # untouched
        finally:
            set_registry(previous)

    def test_marked_worker_drains_per_chunk_deltas(self):
        previous = get_registry()
        try:
            set_registry(MetricsRegistry())  # shed counts from other tests
            mark_worker()
            get_registry().inc("chunk.items", 3)
            snapshot = drain_worker_snapshot()
            assert snapshot["counters"] == {"chunk.items": 3}
            # Counters are per-chunk deltas, never totals.  Each drain
            # also stamps the worker's instantaneous resident set, so
            # on Linux a quiet chunk still ships that one gauge.
            second = drain_worker_snapshot()
            if current_rss_bytes() is None:  # pragma: no cover - non-Linux
                assert second is None
            else:
                assert second["counters"] == {}
                assert set(second["gauges"]) == {"workers.rss_bytes"}
        finally:
            set_registry(previous)


# ---------------------------------------------------------------------------
# provenance


class TestProvenance:
    def test_evidence_ref_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            EvidenceRef(kind="hearsay", ref="x")

    def test_transitions_round_trip_through_dicts(self):
        trail = (
            FunnelTransition(
                stage="inspect",
                outcome="HIJACKED (T1)",
                rationale="corroborated",
                evidence=(
                    EvidenceRef("pdns", "a.example NS evil.net", "seen twice"),
                    EvidenceRef("ct", "crt.sh #7"),
                ),
            ),
        )
        assert transitions_from_dicts(transitions_to_dicts(trail)) == trail

    def test_format_provenance_renders_every_transition(self):
        trail = (
            FunnelTransition(
                stage="classify",
                outcome="TRANSIENT (period 2)",
                rationale="brief excursion",
                evidence=(EvidenceRef("scan", "2018-09-16 1.2.3.4", "AS1 NL"),),
            ),
        )
        text = format_provenance("victim.example", trail)
        assert text.startswith("provenance: victim.example")
        assert "[classify] TRANSIENT (period 2)" in text
        assert "why: brief excursion" in text
        assert "scan     2018-09-16 1.2.3.4  (AS1 NL)" in text

    def test_empty_trail_renders_placeholder(self):
        assert "no provenance" in format_provenance("x.example", ())


class TestPipelineProvenance:
    def test_direct_finding_carries_full_funnel_trail(self, small_report):
        finding = small_report.finding_for("example-ministry.gr")
        stages = [t.stage for t in finding.provenance]
        assert stages[:3] == ["classify", "shortlist", "inspect"]
        assert stages[-1] == "assemble"
        for transition in finding.provenance:
            assert transition.rationale
            for ref in transition.evidence:
                assert ref.kind in EVIDENCE_KINDS
        inspect = finding.provenance[2]
        assert any(ref.kind in ("pdns", "ct") for ref in inspect.evidence)
        assemble = finding.provenance[-1]
        assert all(ref.kind == "routing" for ref in assemble.evidence)

    def test_pivot_findings_carry_pivot_trails(self, paper_report):
        pivots = [
            f for f in paper_report.findings
            if f.provenance and f.provenance[0].stage == "pivot"
        ]
        assert pivots, "the paper scenario always finds pivot victims"
        for finding in pivots:
            assert [t.stage for t in finding.provenance] == ["pivot", "assemble"]
            assert any(r.kind == "pdns" for r in finding.provenance[0].evidence)

    def test_provenance_survives_findings_round_trip(self, small_report, tmp_path):
        from repro.io import load_findings, save_findings

        path = tmp_path / "findings.jsonl"
        save_findings(small_report.findings, path)
        loaded = load_findings(path)
        assert [f.provenance for f in loaded] == [
            f.provenance for f in small_report.findings
        ]


# ---------------------------------------------------------------------------
# end-to-end: traced + metered runs


@pytest.fixture(scope="module")
def traced_serial(small_study):
    tracer = Tracer()
    report, metrics = small_study.profile_pipeline(
        backend=SerialBackend(), events=tracer
    )
    return report, metrics, tracer


class TestExecutorObservability:
    def test_span_tree_covers_run_stages_and_chunks(self, traced_serial):
        _report, _metrics, tracer = traced_serial
        spans = tracer.spans
        runs = [s for s in spans if s.category == "run"]
        assert len(runs) == 1 and runs[0].parent_id is None
        stages = [s for s in spans if s.category == "stage"]
        assert {s.parent_id for s in stages} == {runs[0].span_id}
        stage_ids = {s.span_id for s in stages}
        tasks = [s for s in spans if s.category == "task"]
        assert tasks and all(s.parent_id in stage_ids for s in tasks)

    def test_manifest_embeds_merged_metrics(self, traced_serial):
        _report, metrics, _tracer = traced_serial
        counters = metrics.metrics["counters"]
        assert counters["inspection.inspected"] >= 1
        assert counters["inspection.pdns_lookups"] >= 1
        gauges = metrics.metrics["gauges"]
        assert gauges["report.findings"] == len(_report.findings)
        histograms = metrics.metrics["histograms"]
        assert histograms["kernel.classify.seconds"]["count"] >= 1
        assert histograms["kernel.inspect.seconds"]["count"] >= 1

    def test_untraced_profile_embeds_metrics_too(self, small_study):
        _report, metrics = small_study.profile_pipeline(backend=SerialBackend())
        assert metrics.metrics["counters"]["inspection.inspected"] >= 1

    def test_pool_metrics_match_serial_and_spans_cross_pids(
        self, small_study, traced_serial
    ):
        """Worker-side counts ride the TaskEvent return path home."""
        _r, serial_metrics, _t = traced_serial
        tracer = Tracer()
        _report, pool_metrics = small_study.profile_pipeline(
            backend=ProcessPoolBackend(jobs=2), events=tracer
        )
        assert pool_metrics.metrics["counters"] == serial_metrics.metrics["counters"]
        assert any(pid != os.getpid() for pid in tracer.worker_pids())

    def test_trace_is_a_fold_of_the_event_stream(self, paper, tmp_path):
        """A replay of a run's event stream draws the live trace exactly;
        a warm run marks every stage it restored from the cache."""
        from repro.cache import StageCache
        from repro.obs import CompositeEventSink, JsonlEventSink, read_events

        cache = StageCache(tmp_path / "cache")
        traces = {}
        for run in ("cold", "warm"):
            live = Tracer()
            path = tmp_path / f"{run}.jsonl"
            sink = CompositeEventSink([live, JsonlEventSink(path)])
            try:
                paper.profile_pipeline(
                    backend=ProcessPoolBackend(jobs=2), cache=cache, events=sink
                )
            finally:
                sink.close()
            replay = Tracer()
            for event in read_events(path):
                replay.emit(event)
            assert replay.to_chrome() == live.to_chrome()
            traces[run] = live
        cold_tasks = [s for s in traces["cold"].spans if s.category == "task"]
        assert len({s.pid for s in cold_tasks}) >= 2
        for run, hit in (("cold", False), ("warm", True)):
            stages = [s for s in traces[run].spans if s.category == "stage"]
            assert len(stages) == 6
            for stage in stages:
                instants = [(e.name, e.attrs["stage"]) for e in stage.events]
                assert instants == ([("cache_hit", stage.name)] if hit else [])
