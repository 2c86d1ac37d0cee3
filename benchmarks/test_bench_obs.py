"""Observability layer — untraced-run overhead and a traced profile.

Tracing is opt-in with near-zero cost when off: a run with no event
sink builds no event at all, and the always-on metrics registry is a
handful of dict writes per stage.  The first bench *asserts* that
budget — a profiled run with no sink stays within 2% of a plain
``run_pipeline`` — using interleaved best-of-N arms (plus re-measures)
so single-core CI jitter hits both sides equally.  The second bench
profiles a fully traced run (a :class:`repro.obs.Tracer` as the run's
event sink) and reports the span tree's size and export weight.
"""

import time

from repro.exec import SerialBackend
from repro.obs import Tracer
from repro.world.scenarios import paper_study

from conftest import show

N_BACKGROUND = 150
ROUNDS = 5
#: The asserted ceiling for untraced-profile overhead.
MAX_OVERHEAD = 0.02
#: Re-measure attempts before the assert is allowed to fail — a single
#: scheduler hiccup should not fail the build over a no-op code path.
RETRIES = 2


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _measure_overhead(study):
    """Best-of-N for both arms, interleaved in alternating order."""
    plain_time = obs_time = float("inf")
    for i in range(ROUNDS):
        arms = [("plain", lambda: study.run_pipeline(backend=SerialBackend())),
                ("obs", lambda: study.profile_pipeline(backend=SerialBackend()))]
        if i % 2:
            arms.reverse()
        for label, fn in arms:
            elapsed, _ = _timed(fn)
            if label == "plain":
                plain_time = min(plain_time, elapsed)
            else:
                obs_time = min(obs_time, elapsed)
    return plain_time, obs_time


def test_disabled_tracing_overhead(benchmark):
    study = paper_study(seed=7, n_background=N_BACKGROUND)
    study.run_pipeline(backend=SerialBackend())  # warm-up

    plain_time, obs_time = _measure_overhead(study)
    overhead = (obs_time - plain_time) / plain_time
    attempts = 1
    while overhead >= MAX_OVERHEAD and attempts <= RETRIES:
        plain_time, obs_time = _measure_overhead(study)
        overhead = (obs_time - plain_time) / plain_time
        attempts += 1

    benchmark.pedantic(
        lambda: study.profile_pipeline(backend=SerialBackend()),
        rounds=1,
        iterations=1,
    )

    show(
        f"Untraced profile overhead (asserted < {MAX_OVERHEAD:.0%})",
        [
            f"plain run        : {plain_time * 1e3:8.1f} ms (best of {ROUNDS})",
            f"profile, no sink : {obs_time * 1e3:8.1f} ms (best of {ROUNDS})",
            f"overhead         : {overhead:+.2%} ({attempts} measurement pass(es))",
        ],
    )
    benchmark.extra_info["plain_ms"] = round(plain_time * 1e3, 1)
    benchmark.extra_info["disabled_tracer_ms"] = round(obs_time * 1e3, 1)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
    assert overhead < MAX_OVERHEAD, (
        f"untraced profiling cost {overhead:.2%} (> {MAX_OVERHEAD:.0%}) "
        f"after {attempts} measurement passes"
    )


def test_traced_run_profile(benchmark):
    study = paper_study(seed=7, n_background=N_BACKGROUND)
    tracer = Tracer()

    def traced_run():
        return study.profile_pipeline(backend=SerialBackend(), events=tracer)

    _report, metrics = benchmark.pedantic(traced_run, rounds=1, iterations=1)

    spans = tracer.spans
    by_category = {}
    for span in spans:
        by_category[span.category] = by_category.get(span.category, 0) + 1
    chrome_bytes = len(str(tracer.to_chrome()))
    jsonl_bytes = len(tracer.to_jsonl())
    counters = metrics.metrics["counters"]
    show(
        "Traced run profile",
        [
            f"wall             : {metrics.wall_seconds * 1e3:8.1f} ms",
            f"spans            : {len(spans)} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(by_category.items()))})",
            f"chrome export    : ~{chrome_bytes / 1024:.1f} KiB",
            f"jsonl export     : ~{jsonl_bytes / 1024:.1f} KiB",
            f"pdns lookups     : {counters['inspection.pdns_lookups']}",
            f"ct searches      : {counters['inspection.ct_searches']}",
        ],
    )
    benchmark.extra_info["n_spans"] = len(spans)
    benchmark.extra_info["chrome_kib"] = round(chrome_bytes / 1024, 1)
