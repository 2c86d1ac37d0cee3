"""The executor: drive a stage list over a context, measuring as it goes.

``PipelineExecutor`` owns the backend lifecycle (start before the first
stage, close after the last, even on failure) and produces one
:class:`RunMetrics` per execution.  It is deliberately ignorant of what
the stages compute — the same executor runs the hijack funnel today and
any other staged analysis tomorrow.

It is also the run's observability reducer: it installs a fresh
:class:`repro.obs.MetricsRegistry` per run, folds worker-side metric
snapshots (riding the ``TaskEvent`` return path) back into it, feeds
per-kernel latency histograms, and samples stage-boundary memory
(:class:`repro.obs.MemorySampler` — peak RSS always, tracemalloc when
asked).

Everything else observes the run through one channel: an optional
:class:`repro.obs.EventSink` receives each run boundary once, as one
event — run and stage start and finish, cache hits, task chunks with
their worker-measured start and end, absorbed faults (the table is in
:mod:`repro.obs.events`).  The ``--events FILE`` stream, the TTY
progress line and the :class:`repro.obs.Tracer` span tree are all sinks
on it; without a sink the executor builds no event at all.  Sinks
observe the run and never steer it.  Recording the run in a ledger is
the run owner's business, done from the finished manifest.

Given a :class:`repro.cache.StageCache` plus the run's
:class:`repro.cache.RunKey`, the executor probes the cache before each
cacheable stage (one whose ``Stage.products`` is non-empty): a hit
restores the stage's products onto the context without running any
kernels; a miss runs the stage and stores its products.  Probe traffic
is counted in the run's metrics registry (``cache.hits`` /
``cache.misses`` / ``cache.stores`` / ``cache.bytes_*`` /
``cache.evictions``), and the manifest's ``cache`` section is read off
those counters.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Sequence

from repro.exec.backends import ExecutionBackend, SerialBackend
from repro.exec.metrics import RunMetrics
from repro.exec.stage import Stage, StageContext, fingerprint_chain
from repro.obs.events import NULL_EVENTS, EventSink, stamp
from repro.obs.memory import MemorySampler
from repro.obs.metrics import MetricsRegistry, set_registry

if TYPE_CHECKING:
    from repro.cache.fingerprint import RunKey
    from repro.cache.store import StageCache

#: The manifest ``cache`` section's fields, each a ``cache.<field>`` counter.
CACHE_FIELDS = ("hits", "misses", "stores", "evictions", "bytes_read", "bytes_written")


class PipelineExecutor:
    """Runs stages in order against a shared context."""

    def __init__(
        self,
        stages: Sequence[Stage],
        backend: ExecutionBackend | None = None,
        cache: StageCache | None = None,
        run_key: RunKey | None = None,
        events: EventSink | None = None,
        memory: bool = False,
    ) -> None:
        self._stages = list(stages)
        self._backend = backend or SerialBackend()
        self._cache = cache if run_key is not None else None
        self._run_key = run_key if cache is not None else None
        self._events = events or NULL_EVENTS
        self._memory = MemorySampler(trace_allocations=memory)

    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    def _emit(self, event: str, /, **fields: Any) -> None:
        """Report one run boundary to the sink; a no-op without one."""
        if self._events is not NULL_EVENTS:
            self._events.emit(stamp({"event": event, **fields}))

    def execute(self, ctx: StageContext) -> RunMetrics:
        backend = self._backend
        cache = self._cache
        sampler = self._memory
        registry = set_registry(MetricsRegistry())
        metrics = RunMetrics(
            backend=backend.name, jobs=backend.jobs, chunk_size=backend.chunk_size
        )
        evictions_base = cache.counters.evictions if cache is not None else 0
        chain = fingerprint_chain(self._stages)
        total = len(self._stages)
        run_start = time.perf_counter()
        sampler.start_run()
        self._emit(
            "run_start",
            backend=backend.name,
            jobs=backend.jobs,
            pid=os.getpid(),
            total_stages=total,
            stages=[s.name for s in self._stages],
        )
        backend.start(ctx.inputs, ctx.config)
        try:
            from repro.segments.inputs import inputs_bytes_mapped

            mapped = inputs_bytes_mapped(ctx.inputs)
            if mapped:
                registry.set_gauge("segments.bytes_mapped", mapped)
        except Exception:  # pragma: no cover - inputs without segments
            pass
        try:
            for index, stage in enumerate(self._stages, start=1):
                self._emit(
                    "stage_start",
                    stage=stage.name,
                    index=index,
                    total=total,
                    parallel=stage.parallel,
                )
                sampler.start_stage()
                stage_start = time.perf_counter()
                fingerprint = None
                if cache is not None and stage.products:
                    fingerprint = self._probe(
                        cache, chain[:index], stage, ctx, metrics, registry,
                        stage_start, sampler,
                    )
                    if fingerprint is None:
                        # Cache hit, stage satisfied.
                        self._emit_stage_finish(metrics, index, total, run_start)
                        continue
                if fingerprint is not None:
                    # Let a sharding backend stream per-shard products
                    # under this stage's fingerprint.
                    backend.set_shard_context(cache, fingerprint)
                try:
                    stats = stage.run(ctx, backend)
                finally:
                    if fingerprint is not None:
                        backend.clear_shard_context()
                wall = time.perf_counter() - stage_start
                events = backend.pop_events()
                self._reduce_task_events(events, registry, stage.name)
                metrics.add_stage(
                    stage.name, wall, stats, events, stage.parallel,
                    memory=sampler.finish_stage(),
                )
                for event in backend.pop_retry_events():
                    self._emit(
                        "retry",
                        stage=stage.name,
                        kernel=event.kernel,
                        kind=event.kind,
                        attempt=event.attempt,
                    )
                    if event.kind == "slow":
                        ctx.quality.worker_slowdowns += 1
                    else:
                        ctx.quality.record_retry(event.kind)
                if fingerprint is not None:
                    from repro.cache.resume import ResumeManifest

                    products = stage.cache_products(ctx)
                    nbytes = cache.put(fingerprint, stage.name, stats, products)
                    # The stage entry supersedes any shards banked under
                    # this fingerprint: dropping their resume manifest
                    # unpins them for gc.
                    ResumeManifest(cache.root).discard(fingerprint)
                    # Undo any stripping cache_products performed (the
                    # mapping shares objects with the ctx).
                    stage.restore_products(ctx, products)
                    registry.inc("cache.stores")
                    registry.inc("cache.bytes_written", nbytes)
                self._emit_stage_finish(metrics, index, total, run_start)
        finally:
            backend.close()
        metrics.wall_seconds = time.perf_counter() - run_start
        metrics.data_quality = ctx.quality.to_dict()
        metrics.memory = sampler.finish_run()
        if cache is not None:
            evicted = cache.counters.evictions - evictions_base
            if evicted:
                registry.inc("cache.evictions", evicted)
            metrics.cache = {
                "enabled": True,
                "dir": str(cache.root),
                **{field: registry.counter(f"cache.{field}") for field in CACHE_FIELDS},
            }
        metrics.metrics = registry.snapshot()
        self._emit(
            "run_finish",
            wall_seconds=round(metrics.wall_seconds, 6),
            total_stages=total,
        )
        return metrics

    def _emit_stage_finish(
        self, metrics: RunMetrics, index: int, total: int, run_start: float
    ) -> None:
        """Emit stage_finish with the run's ETA.

        The ETA is the mean cost of the stages finished so far times the
        stages still to run — crude, but monotone-improving and free.
        """
        stage = metrics.stages[-1]
        elapsed = time.perf_counter() - run_start
        eta = (elapsed / index) * (total - index)
        self._emit(
            "stage_finish",
            stage=stage.name,
            index=index,
            total=total,
            wall_seconds=round(stage.wall_seconds, 6),
            cached=stage.cached,
            n_in=stage.n_in,
            n_out=stage.n_out,
            eta_seconds=round(eta, 6),
        )

    def _probe(
        self, cache, chain, stage, ctx, metrics, registry, stage_start, sampler
    ) -> str | None:
        """Try to satisfy a cacheable stage from the cache.

        Returns the stage's fingerprint on a miss (the caller stores the
        freshly computed products under it) or None on a hit (the stage
        is already satisfied and must be skipped).
        """
        from repro.cache.fingerprint import stage_fingerprint

        fingerprint = stage_fingerprint(self._run_key, chain)
        entry = cache.get(fingerprint)
        if entry is None:
            registry.inc("cache.misses")
            return fingerprint
        stage.restore_products(ctx, entry.products)
        registry.inc("cache.hits")
        registry.inc("cache.bytes_read", entry.nbytes)
        self._emit("cache_hit", stage=stage.name, fingerprint=fingerprint)
        wall = time.perf_counter() - stage_start
        metrics.add_stage(
            stage.name, wall, entry.stats, [], stage.parallel, cached=True,
            memory=sampler.finish_stage(),
        )
        return None

    def _reduce_task_events(
        self, events: list, registry: MetricsRegistry, stage_name: str
    ) -> None:
        """Fold chunk observability payloads into the run's registry and
        report each chunk to the sink."""
        for event in events:
            if event.kernel:
                registry.observe(f"kernel.{event.kernel}.seconds", event.seconds)
            span: dict[str, Any] = {}
            if event.obs is not None:
                chunk_start, chunk_end, snapshot = event.obs
                if snapshot is not None:
                    registry.merge(snapshot)
                span = {"start": chunk_start, "end": chunk_end}
            self._emit(
                "chunk",
                stage=stage_name,
                kernel=event.kernel,
                pid=event.pid,
                items=event.items,
                seconds=round(event.seconds, 6),
                **span,
            )
