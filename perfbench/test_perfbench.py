"""Tests of the benchmark's own logic: scoring, the layer trace, tails.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc

import pytest

import run
from layers import LayerTrace, Span
from workloads import report_digest, serial_report


@pytest.fixture(scope="module")
def report_text() -> str:
    from repro.world.scale import scale_world

    return serial_report(scale_world(300, seed=0))


def test_corrupted_report_counts_as_failure(report_text):
    corrupted = report_text.replace('"', "'", 1)
    assert corrupted != report_text
    oracle = {"hunt": report_digest(report_text), "epoch-1": report_digest(report_text)}
    ops = [
        {"kind": "cold", "digest": report_digest(report_text)},
        {"kind": "warm", "digest": report_digest(corrupted)},
        {"kind": "epoch", "epoch": 1, "error": "RuntimeError: boom"},
        {"kind": "epoch", "epoch": 1, "digest": report_digest(report_text)},
    ]
    assert run.score(ops, oracle) == 2
    assert [op["failed"] for op in ops] == [False, True, True, False]


def test_self_time_subtracts_child_spans():
    trace = LayerTrace()
    trace.spans = [
        Span("op.cold", 0.0, 10.0, parent=-1, op=0),
        Span("exec.map", 1.0, 5.0, parent=0, op=0),
        Span("pdns.query", 2.0, 3.0, parent=1, op=0),
        Span("pdns.query", 2.1, 2.5, parent=2, op=0),
        Span("cache.get", 6.0, 6.5, parent=0, op=0, counts={"hits": 1, "bytes_read": 7}),
        Span("cache.get", 20.0, 21.0, parent=-1, op=1),
    ]
    own = trace.self_times(0)
    assert own == pytest.approx(
        {"op.cold": 5.5, "exec.map": 3.0, "pdns.query": 1.0, "cache.get": 0.5}
    )
    counts = trace.counts(0)
    # The nested same-named query is one outermost call, timed once.
    assert counts["pdns.query.calls"] == 1
    assert counts["pdns.query.total_s"] == pytest.approx(1.0)
    assert counts["cache.get.hits"] == 1
    assert counts["cache.get.bytes_read"] == 7


def test_install_records_spans_and_uninstall_restores():
    from repro.core import pipeline
    from repro.exec import backends

    before_start = vars(backends.SerialBackend)["start"]
    assert "cache_products" not in vars(pipeline.PivotStage)
    trace = LayerTrace()
    trace.install()
    try:
        assert vars(backends.SerialBackend)["start"] is not before_start
        trace.begin_op(0, "cold")
        backends.SerialBackend().start(None, None)
        trace.end_op()
    finally:
        trace.uninstall()
    assert vars(backends.SerialBackend)["start"] is before_start
    assert "cache_products" not in vars(pipeline.PivotStage)
    assert [(s.name, s.parent) for s in trace.spans] == [("op.cold", -1), ("exec.start", 0)]


def test_timings_are_reported_at_the_reference_speed():
    slow = 2 * run.PROBE_REF_S
    setups = [{"setup_s": 10.0, "probe_s": slow}, {"setup_s": 4.0, "probe_s": run.PROBE_REF_S}]
    ops = [
        {"kind": "cold", "seconds": 1.0, "probe_s": slow, "traced": False},
        {"kind": "warm", "seconds": 0.5, "probe_s": run.PROBE_REF_S, "traced": False},
        {"kind": "epoch", "seconds": 3.0, "probe_s": slow, "traced": True},
    ]
    assert run.timings(setups, ops) == pytest.approx(
        {"setup_s": [5.0, 4.0], "cold_s": [0.5], "warm_s": [0.5], "epoch_s": []}
    )
    assert run.timings(setups, ops, reference=False)["cold_s"] == [1.0]
    metrics = run.end_to_end(run.timings(setups, ops), ops, vm_hwm_bytes=2**20)
    assert metrics["setup_s"] == (pytest.approx(4.5), "s")
    assert metrics["peak_rss_mb"] == (1.0, "MB")


def test_layer_times_and_trace_overhead_are_at_the_reference_speed():
    slow = 2 * run.PROBE_REF_S
    setups = [
        {
            "setup_s": 8.0,
            "world_s": 2.0,
            "segments_write_s": 6.0,
            "segments_bytes": 9,
            "probe_s": slow,
        }
    ]
    ops = [
        {"kind": "warm", "seconds": 0.5, "probe_s": run.PROBE_REF_S, "traced": False},
        {
            "kind": "warm",
            "seconds": 1.0,
            "probe_s": slow,
            "traced": True,
            "layers": {"op.self_s": 0.02, "exec.tasks": 4},
        },
    ]
    metrics = run.per_layer(setups, ops)
    assert metrics["setup.segments_write_s"] == (pytest.approx(3.0), "s")
    assert metrics["setup.segments_bytes"] == (9, "bytes")
    assert metrics["warm.op.self_s"] == (pytest.approx(0.01), "s")
    assert metrics["warm.exec.tasks"] == (4, "count")
    # The traced op took twice as long on a host twice as slow: no overhead.
    assert metrics["warm.trace.overhead_frac"] == (pytest.approx(0.0), "ratio")
    assert metrics["host.probe_s"] == (pytest.approx(0.75 * slow), "s")


def test_probe_leaves_the_collector_on():
    assert run.probe() > 0
    assert gc.isenabled()


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0])["tail"] is None
    summary = run.tail([float(x) for x in range(1, 21)])
    assert summary["n"] == 20
    assert summary["median"] == 10.5
    assert summary["tail"] == {"pct": 50.0, "value": 10.0}
