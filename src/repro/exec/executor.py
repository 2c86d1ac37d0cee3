"""The executor: drive a stage list over a context, measuring as it goes.

``PipelineExecutor`` owns the backend lifecycle (start before the first
stage, close after the last, even on failure) and produces one
:class:`RunMetrics` per execution.  It is deliberately ignorant of what
the stages compute — the same executor runs the hijack funnel today and
any other staged analysis tomorrow.

It is also the run's observability reducer: it installs a fresh
:class:`repro.obs.MetricsRegistry` per run, folds worker-side metric
snapshots (riding the ``TaskEvent`` return path) back into it, feeds
per-kernel latency histograms, samples stage-boundary memory
(:class:`repro.obs.MemorySampler` — peak RSS always, tracemalloc when
asked), and — when given an enabled :class:`repro.obs.Tracer` — emits
the run → stage → task-chunk span tree with fault retries, slowdowns,
and pool rebuilds attached as span events.  With the default disabled
tracer every trace call is a single attribute test, keeping untraced
runs at baseline cost.

Two optional observers ride along without ever steering the run:

* an :class:`repro.obs.EventSink` receives live heartbeat events
  (run/stage/chunk boundaries, retries, ETA) — the ``--events FILE``
  stream and the TTY progress line;
* a :class:`repro.obs.RunLedger` (with its :class:`LedgerInfo`
  identity) gets one durable record appended at run end.  A
  ``ledger_extra`` callable lets the run's owner attach semantics the
  executor cannot know — the golden-report digest, funnel counts —
  computed from the finished context.  Ledger append failures are
  logged and swallowed: telemetry must never fail a run that computed
  its answer.

Given a :class:`repro.cache.StageCache` plus the run's
:class:`repro.cache.RunKey`, the executor probes the cache before each
cacheable stage (one whose ``Stage.products`` is non-empty): a hit
restores the stage's products onto the context without running any
kernels; a miss runs the stage and stores its products.  Probe traffic
is counted in the run's metrics registry (``cache.hits`` /
``cache.misses`` / ``cache.stores`` / ``cache.bytes_*`` /
``cache.evictions``) and summarized in the manifest's ``cache``
section.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.exec.backends import ExecutionBackend, SerialBackend
from repro.exec.metrics import RunMetrics
from repro.exec.stage import Stage, StageContext
from repro.obs.events import NULL_EVENTS, EventSink, stamp
from repro.obs.memory import MemorySampler
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.cache.fingerprint import RunKey
    from repro.cache.store import StageCache
    from repro.obs.ledger import LedgerInfo, RunLedger

logger = logging.getLogger("repro.exec.executor")


class PipelineExecutor:
    """Runs stages in order against a shared context."""

    def __init__(
        self,
        stages: Sequence[Stage],
        backend: ExecutionBackend | None = None,
        tracer: Tracer | None = None,
        cache: StageCache | None = None,
        run_key: RunKey | None = None,
        events: EventSink | None = None,
        memory: bool = False,
        ledger: RunLedger | None = None,
        ledger_info: LedgerInfo | None = None,
        ledger_extra: Callable[[StageContext], dict[str, Any]] | None = None,
    ) -> None:
        self._stages = list(stages)
        self._backend = backend or SerialBackend()
        self._tracer = tracer or NULL_TRACER
        self._cache = cache if run_key is not None else None
        self._run_key = run_key if cache is not None else None
        self._events = events or NULL_EVENTS
        self._memory = MemorySampler(trace_allocations=memory)
        self._ledger = ledger if ledger_info is not None else None
        self._ledger_info = ledger_info if ledger is not None else None
        self._ledger_extra = ledger_extra

    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    def execute(self, ctx: StageContext) -> RunMetrics:
        backend = self._backend
        tracer = self._tracer
        cache = self._cache
        sink = self._events
        sampler = self._memory
        registry = set_registry(MetricsRegistry())
        metrics = RunMetrics(
            backend=backend.name, jobs=backend.jobs, chunk_size=backend.chunk_size
        )
        tally = {
            "hits": 0, "misses": 0, "stores": 0, "evictions": 0,
            "bytes_read": 0, "bytes_written": 0,
        }
        evictions_base = cache.counters.evictions if cache is not None else 0
        # The fingerprint chain: (name, cache_version, config_deps) of
        # every stage so far.  Uncacheable stages still extend it —
        # their code shapes downstream products just the same.
        chain: list[tuple[str, int, tuple[str, ...] | None]] = []
        total = len(self._stages)
        run_start = time.perf_counter()
        sampler.start_run()
        sink.emit(
            stamp(
                {
                    "event": "run_start",
                    "backend": backend.name,
                    "jobs": backend.jobs,
                    "total_stages": total,
                    "stages": [s.name for s in self._stages],
                }
            )
        )
        with tracer.span(
            "run", category="run", backend=backend.name, jobs=backend.jobs
        ):
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
                    with tracer.span(
                        stage.name, category="stage", parallel=stage.parallel
                    ):
                        sink.emit(
                            stamp(
                                {
                                    "event": "stage_start",
                                    "stage": stage.name,
                                    "index": index,
                                    "total": total,
                                }
                            )
                        )
                        sampler.start_stage()
                        stage_start = time.perf_counter()
                        fingerprint = None
                        if cache is not None:
                            chain.append(
                                (stage.name, stage.cache_version, stage.config_deps)
                            )
                            if stage.products:
                                fingerprint = self._probe(
                                    cache, chain, stage, ctx, metrics,
                                    registry, tracer, tally, stage_start,
                                    sampler,
                                )
                                if fingerprint is None:
                                    # Cache hit, stage satisfied.
                                    self._emit_stage_finish(
                                        sink, metrics, index, total, run_start
                                    )
                                    continue
                        if fingerprint is not None:
                            # Let a sharding backend stream per-shard
                            # products under this stage's fingerprint.
                            backend.set_shard_context(cache, fingerprint)
                        try:
                            stats = stage.run(ctx, backend)
                        finally:
                            if fingerprint is not None:
                                backend.clear_shard_context()
                        wall = time.perf_counter() - stage_start
                        events = backend.pop_events()
                        self._reduce_task_events(
                            events, registry, tracer, sink, stage.name
                        )
                        metrics.add_stage(
                            stage.name, wall, stats, events, stage.parallel,
                            memory=sampler.finish_stage(),
                        )
                        for event in backend.pop_retry_events():
                            tracer.event(
                                event.kind, kernel=event.kernel, attempt=event.attempt
                            )
                            sink.emit(
                                stamp(
                                    {
                                        "event": "retry",
                                        "stage": stage.name,
                                        "kernel": event.kernel,
                                        "kind": event.kind,
                                        "attempt": event.attempt,
                                    }
                                )
                            )
                            if event.kind == "slow":
                                ctx.quality.worker_slowdowns += 1
                            else:
                                ctx.quality.record_retry(event.kind)
                        if fingerprint is not None:
                            from repro.cache.resume import ResumeManifest

                            products = stage.cache_products(ctx)
                            nbytes = cache.put(
                                fingerprint, stage.name, stats, products
                            )
                            # The stage entry supersedes any shards banked
                            # under this fingerprint: dropping their resume
                            # manifest unpins them for gc.
                            ResumeManifest(cache.root).discard(fingerprint)
                            # Undo any stripping cache_products performed
                            # (the mapping shares objects with the ctx).
                            stage.restore_products(ctx, products)
                            registry.inc("cache.stores")
                            registry.inc("cache.bytes_written", nbytes)
                            tally["stores"] += 1
                            tally["bytes_written"] += nbytes
                        self._emit_stage_finish(
                            sink, metrics, index, total, run_start
                        )
            finally:
                backend.close()
        metrics.wall_seconds = time.perf_counter() - run_start
        metrics.data_quality = ctx.quality.to_dict()
        metrics.memory = sampler.finish_run()
        if cache is not None:
            evicted = cache.counters.evictions - evictions_base
            if evicted:
                registry.inc("cache.evictions", evicted)
                tally["evictions"] = evicted
            metrics.cache = {
                "enabled": True,
                "dir": str(cache.root),
                **tally,
            }
        metrics.metrics = registry.snapshot()
        sink.emit(
            stamp(
                {
                    "event": "run_finish",
                    "wall_seconds": round(metrics.wall_seconds, 6),
                    "total_stages": total,
                }
            )
        )
        self._append_ledger(ctx, metrics)
        return metrics

    def _emit_stage_finish(
        self,
        sink: EventSink,
        metrics: RunMetrics,
        index: int,
        total: int,
        run_start: float,
    ) -> None:
        """Emit the stage_finish heartbeat with the run's ETA.

        The ETA is the mean cost of the stages finished so far times the
        stages still to run — crude, but monotone-improving and free.
        """
        if sink is NULL_EVENTS:
            return
        stage = metrics.stages[-1]
        elapsed = time.perf_counter() - run_start
        eta = (elapsed / index) * (total - index)
        sink.emit(
            stamp(
                {
                    "event": "stage_finish",
                    "stage": stage.name,
                    "index": index,
                    "total": total,
                    "wall_seconds": round(stage.wall_seconds, 6),
                    "cached": stage.cached,
                    "n_in": stage.n_in,
                    "n_out": stage.n_out,
                    "eta_seconds": round(eta, 6),
                }
            )
        )

    def _append_ledger(self, ctx: StageContext, metrics: RunMetrics) -> None:
        """Record the finished run; failures are logged, never raised."""
        if self._ledger is None or self._ledger_info is None:
            return
        try:
            from repro.obs.ledger import record_from_metrics

            record = record_from_metrics(metrics, self._ledger_info)
            if self._ledger_extra is not None:
                for field, value in self._ledger_extra(ctx).items():
                    setattr(record, field, value)
            run_id = self._ledger.append(record)
            logger.debug("ledger: recorded run %s", run_id)
        except Exception:
            logger.warning(
                "ledger: failed to record run in %s",
                self._ledger.root,
                exc_info=True,
            )

    def _probe(
        self, cache, chain, stage, ctx, metrics, registry, tracer, tally,
        stage_start, sampler,
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
            tally["misses"] += 1
            return fingerprint
        stage.restore_products(ctx, entry.products)
        registry.inc("cache.hits")
        registry.inc("cache.bytes_read", entry.nbytes)
        tally["hits"] += 1
        tally["bytes_read"] += entry.nbytes
        tracer.event("cache_hit", stage=stage.name, fingerprint=fingerprint)
        wall = time.perf_counter() - stage_start
        metrics.add_stage(
            stage.name, wall, entry.stats, [], stage.parallel, cached=True,
            memory=sampler.finish_stage(),
        )
        return None

    @staticmethod
    def _reduce_task_events(
        events: list,
        registry: MetricsRegistry,
        tracer: Tracer,
        sink: EventSink = NULL_EVENTS,
        stage_name: str = "",
    ) -> None:
        """Fold chunk observability payloads into the run's registry/trace."""
        emit_chunk_events = sink is not NULL_EVENTS
        for event in events:
            if event.kernel:
                registry.observe(f"kernel.{event.kernel}.seconds", event.seconds)
            if emit_chunk_events:
                sink.emit(
                    stamp(
                        {
                            "event": "chunk",
                            "stage": stage_name,
                            "kernel": event.kernel,
                            "pid": event.pid,
                            "items": event.items,
                            "seconds": round(event.seconds, 6),
                        }
                    )
                )
            if event.obs is None:
                continue
            chunk_start, chunk_end, snapshot = event.obs
            if snapshot is not None:
                registry.merge(snapshot)
            if tracer.enabled:
                tracer.add_task_span(
                    f"chunk:{event.kernel}",
                    chunk_start,
                    chunk_end,
                    event.pid,
                    items=event.items,
                )
