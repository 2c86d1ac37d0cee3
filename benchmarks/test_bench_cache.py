"""Stage cache — cold/warm wall-clock and probe overhead on forced miss.

Three questions, answered with numbers rather than asserted (a loaded CI
host jitters more than some of the effects being measured):

* what does a warm run cost relative to an uncached one?  At simulated
  scale the pipeline kernels are cheap, so unpickling a stored result is
  not dramatically faster than recomputing it — the cache pays off in
  sweeps (downstream-only recomputation) and when kernels are expensive;
* what does the *probe* cost on a run that misses everything — the
  inputs/config digests, the chain fingerprints, and the disk lookups —
  as a fraction of an uncached run (target < 2%, reported not asserted);
* the payoff case: with an injected per-task slowdown standing in for
  expensive kernels, a warm run skips the slow work entirely.
"""

import time

from repro.cache import StageCache
from repro.exec import SerialBackend
from repro.faults import FaultPlan
from repro.world.scenarios import paper_study

from conftest import show

N_BACKGROUND = 150
ROUNDS = 3

SLOW_SPEC = "workers.slow=1.0,workers.slow_ms=2"


def _timed(study, **kwargs):
    t0 = time.perf_counter()
    report = study.run_pipeline(backend=SerialBackend(), **kwargs)
    return time.perf_counter() - t0, report


def test_cold_vs_warm_run(benchmark, tmp_path):
    study = paper_study(seed=7, n_background=N_BACKGROUND)
    cache = StageCache(tmp_path / "cache")

    _timed(study)  # warm-up: allocator, imports, lazy tables

    uncached_time, uncached_report = _timed(study)
    cold_time, cold_report = _timed(study, cache=cache)

    warm_time = float("inf")
    warm_report = None
    for _ in range(ROUNDS):
        elapsed, warm_report = _timed(study, cache=cache)
        warm_time = min(warm_time, elapsed)

    _report, metrics = benchmark.pedantic(
        lambda: study.profile_pipeline(backend=SerialBackend(), cache=cache),
        rounds=1,
        iterations=1,
    )

    # The differential invariant, end to end.
    assert cold_report == uncached_report
    assert warm_report == uncached_report
    assert metrics.cache["misses"] == 0

    stats = cache.stats()
    show(
        "Stage cache: cold vs warm (paper scenario, serial)",
        [
            f"uncached : {uncached_time * 1e3:8.1f} ms",
            f"cold     : {cold_time * 1e3:8.1f} ms  (probe + store)",
            f"warm     : {warm_time * 1e3:8.1f} ms  (best of {ROUNDS})",
            f"entries  : {stats.entries} ({stats.total_bytes / 1e6:.1f} MB)",
            f"warm hits: {metrics.cache['hits']}",
        ],
    )
    benchmark.extra_info["uncached_ms"] = round(uncached_time * 1e3, 1)
    benchmark.extra_info["cold_ms"] = round(cold_time * 1e3, 1)
    benchmark.extra_info["warm_ms"] = round(warm_time * 1e3, 1)
    benchmark.extra_info["cache_bytes"] = stats.total_bytes


def test_probe_overhead_on_forced_miss(benchmark, tmp_path):
    """What the executor adds per run *before* any stage result exists:
    deriving the run key from a fresh input bundle (component digests
    memoized on the study's datasets), fingerprinting every cacheable
    stage, and looking each fingerprint up in a cache that misses.

    This is the steady-state probe path — the store path (pickling and
    writing entries) is a one-time cold cost reported by the cold/warm
    bench above.
    """
    from repro.cache.fingerprint import derive_run_key, stage_fingerprint
    from repro.core.pipeline import PipelineConfig, PipelineInputs, build_stages
    from repro.exec.stage import fingerprint_chain

    study = paper_study(seed=7, n_background=N_BACKGROUND)
    cache = StageCache(tmp_path / "never-filled")
    config = PipelineConfig()
    empty_plan = FaultPlan.from_spec(None)
    stages = build_stages()
    chain = fingerprint_chain(stages)

    def probe_run():
        # Exactly what a cache-enabled run adds: a fresh bundle is
        # built per run, keyed, and every cacheable stage is probed.
        inputs = PipelineInputs.from_study(study)
        run_key = derive_run_key(inputs, empty_plan, config)
        misses = 0
        for index, stage in enumerate(stages, start=1):
            if stage.products and cache.get(
                stage_fingerprint(run_key, chain[:index])
            ) is None:
                misses += 1
        return misses

    uncached_time, _report = _timed(study)
    probe_run()  # warm-up: primes the per-component digest memos

    probe_time = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        misses = probe_run()
        probe_time = min(probe_time, time.perf_counter() - t0)
    assert misses == sum(1 for s in stages if s.products)

    benchmark.pedantic(probe_run, rounds=1, iterations=1)

    overhead = probe_time / uncached_time
    show(
        "Cache probe overhead on forced miss (target < 2%)",
        [
            f"uncached run : {uncached_time * 1e3:8.1f} ms",
            f"probe, all-miss : {probe_time * 1e3:8.3f} ms "
            f"({misses} stages, best of {ROUNDS})",
            f"overhead     : {overhead:+.2%} of an uncached run",
        ],
    )
    benchmark.extra_info["uncached_ms"] = round(uncached_time * 1e3, 1)
    benchmark.extra_info["probe_ms"] = round(probe_time * 1e3, 3)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)


def test_warm_run_skips_injected_slowdown(benchmark, tmp_path):
    """The payoff case: when kernels are expensive (here simulated with
    a deterministic per-task slowdown), a warm run skips them."""
    study = paper_study(seed=7, n_background=N_BACKGROUND)
    cache = StageCache(tmp_path / "cache")
    plan = FaultPlan.from_spec(SLOW_SPEC, seed=3)

    cold_time, cold_report = _timed(study, faults=plan, cache=cache)
    warm_time = float("inf")
    warm_report = None
    for _ in range(ROUNDS):
        elapsed, warm_report = _timed(study, faults=plan, cache=cache)
        warm_time = min(warm_time, elapsed)

    benchmark.pedantic(
        lambda: study.run_pipeline(
            backend=SerialBackend(), faults=plan, cache=cache
        ),
        rounds=1,
        iterations=1,
    )

    assert warm_report == cold_report
    show(
        "Warm run under injected slowdown (workers.slow=1.0, 2 ms/task)",
        [
            f"cold (slowed) : {cold_time * 1e3:8.1f} ms",
            f"warm          : {warm_time * 1e3:8.1f} ms (best of {ROUNDS})",
            f"speedup       : {cold_time / warm_time:5.1f}x",
        ],
    )
    benchmark.extra_info["cold_ms"] = round(cold_time * 1e3, 1)
    benchmark.extra_info["warm_ms"] = round(warm_time * 1e3, 1)
