"""Pluggable schedulers for the pipeline's fan-out stages.

Both backends expose the same contract: ``map(kernel_name, items)``
returns one result per item, **aligned with the input order**, no matter
how the work was sharded.  That alignment — plus kernels being pure
per-item maps — is the whole determinism story: stage products are
assembled in input order, so the serial and process-pool paths produce
byte-identical reports.

The process-pool backend has one scheduler for every kernel: it splits
``range(len(items))`` into contiguous ``(lo, hi)`` shards and ships each
worker ``items[lo:hi]``.  The deployment stage maps over domain
*ordinals* — a ``range``, whose slices pickle as two ints — so a
million-domain sweep never materializes its items in the parent; the
inspection stage's shards carry the shortlisted entries themselves.
When the executor installs a shard context (a cached run computing a
cacheable stage), each completed shard's results stream into the stage
cache under a shard-scoped key, so a killed run resumes from its
completed shards.

Input transport is governed by the start method: with ``fork`` the
heavy inputs never travel at all — the parent installs them as kernel
globals *before* the pool spawns, so workers inherit them copy-on-write.
With ``spawn`` (explicit, or the platform default when fork is missing)
the parent pickles the inputs *once* into a
``multiprocessing.shared_memory`` block and every worker — including
replacements after a crash-triggered pool rebuild — reattaches to the
same block instead of receiving a per-worker pickled copy.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Sequence

from repro.exec import kernels
from repro.exec.metrics import RetryEvent, StageStats, TaskEvent
from repro.faults.errors import RetryBudgetExceeded, WorkerFault
from repro.faults.plan import SLOW
from repro.obs.metrics import get_registry

if TYPE_CHECKING:
    from repro.cache.store import StageCache
    from repro.faults.plan import FaultPlan

#: How many shards each worker gets by default when no chunk size is set;
#: >1 so one slow shard does not serialize the whole stage.
_SHARDS_PER_WORKER = 4

#: Retry policy used when no fault plan supplies one: a genuinely broken
#: process pool is still rebuilt and retried this many times.
_DEFAULT_MAX_RETRIES = 3
_DEFAULT_BACKOFF_MS = 20


class ExecutionBackend(ABC):
    """Schedules kernel invocations for the executor."""

    name: str = ""
    jobs: int = 1
    chunk_size: int | None = None

    def __init__(self) -> None:
        self._events: list[TaskEvent] = []
        self._retry_events: list[RetryEvent] = []
        self._fault_plan: FaultPlan | None = None

    def start(self, inputs: Any, config: Any) -> None:
        """Install the run's inputs before the first ``map`` call."""

    def install_faults(self, plan: FaultPlan | None) -> None:
        """Adopt a fault plan for this run; None or an empty plan means
        no injection, which leaves every dispatch path byte-identical to
        a backend that never heard of faults."""
        self._fault_plan = None if plan is None or plan.is_empty else plan

    def set_shard_context(self, cache: StageCache, fingerprint: str) -> None:
        """Adopt the running stage's cache handle + fingerprint.

        The executor brackets every cache-missed stage with this call so
        a sharding backend can stream per-shard products into the stage
        cache under shard-scoped keys.  The base implementation ignores
        it — only the process pool shards.
        """

    def clear_shard_context(self) -> None:
        """Drop any shard context installed by :meth:`set_shard_context`."""

    @abstractmethod
    def map(self, kernel_name: str, items: Sequence) -> list:
        """Apply a kernel to every item, results aligned with ``items``."""

    # -- fault + retry machinery (inert without an installed plan) -----------

    def _max_attempts(self) -> int:
        if self._fault_plan is not None:
            return self._fault_plan.spec.max_retries
        return _DEFAULT_MAX_RETRIES

    def _backoff_seconds(self, attempt: int) -> float:
        if self._fault_plan is not None:
            return self._fault_plan.backoff_seconds(attempt)
        return (_DEFAULT_BACKOFF_MS / 1000.0) * 2**attempt

    def _chunk_fault(self, kernel_name: str, token: Any, attempt: int) -> str | None:
        """The fault directive (if any) for one dispatch attempt.

        Decided in the parent from the deterministic plan — workers only
        obey directives, so a re-run with the same ``(seed, spec)``
        injects the same faults into the same chunks.
        """
        if self._fault_plan is None:
            return None
        fault = self._fault_plan.worker_fault(kernel_name, token, attempt)
        if fault is not None and fault.startswith(SLOW):
            self._record_retry(kernel_name, "slow", attempt)
        return fault

    def run_inline(self, kernel_name: str, items: Sequence) -> list:
        """Run a kernel in the calling process, bypassing any fan-out.

        Stages whose work is cheaper than shipping its operands (e.g.
        classification: microseconds per map, kilobytes per map) use
        this so both backends execute them identically in the parent.
        Injected crashes are retried with exponential backoff, exactly
        like a process-pool chunk.
        """
        if not items:
            return []
        max_attempts = self._max_attempts()
        for attempt in range(max_attempts):
            fault = self._chunk_fault(kernel_name, "inline", attempt)
            try:
                pid, seconds, results, obs = kernels.run_chunk(
                    kernel_name, items, fault
                )
            except WorkerFault as exc:
                if attempt + 1 >= max_attempts:
                    raise RetryBudgetExceeded(
                        f"kernel {kernel_name!r} failed {max_attempts} times"
                    ) from exc
                self._record_retry(kernel_name, "crash", attempt)
                time.sleep(self._backoff_seconds(attempt))
                continue
            self._record(TaskEvent(pid, seconds, len(items), kernel_name, obs))
            return results
        raise AssertionError("unreachable: retry loop exits via return or raise")

    def _record(self, event: TaskEvent) -> None:
        self._events.append(event)

    def _record_retry(self, kernel: str, kind: str, attempt: int) -> None:
        self._retry_events.append(RetryEvent(kernel, kind, attempt))

    def pop_events(self) -> list[TaskEvent]:
        """Drain the task events recorded since the last call."""
        events, self._events = self._events, []
        return events

    def pop_retry_events(self) -> list[RetryEvent]:
        """Drain the fault/retry events recorded since the last call."""
        events, self._retry_events = self._retry_events, []
        return events

    def close(self) -> None:
        """Release any resources held since :meth:`start`."""


class SerialBackend(ExecutionBackend):
    """Run every kernel inline in the calling process."""

    name = "serial"
    jobs = 1

    def start(self, inputs: Any, config: Any) -> None:
        kernels.set_context(inputs, config)

    def map(self, kernel_name: str, items: Sequence) -> list:
        return self.run_inline(kernel_name, items)


class ProcessPoolBackend(ExecutionBackend):
    """Shard kernel work across worker processes.

    ``start_method`` picks the multiprocessing start method: ``"fork"``,
    ``"spawn"``, or None for the platform default (fork where available).
    ``partition`` and ``shard_cache`` accept only ``"shard"`` and
    ``True``; they remain for callers that still pass them.
    """

    name = "process"

    def __init__(
        self,
        jobs: int | None = None,
        chunk_size: int | None = None,
        *,
        start_method: str | None = None,
        partition: str = "shard",
        shard_cache: bool = True,
    ) -> None:
        super().__init__()
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if start_method not in (None, "fork", "spawn"):
            raise ValueError(
                f"start_method must be 'fork', 'spawn', or None, "
                f"got {start_method!r}"
            )
        if partition != "shard":
            raise ValueError(
                f"partition={partition!r}: the hash partition was removed; "
                "every pooled kernel runs as (lo, hi) shards"
            )
        if shard_cache is not True:
            raise ValueError(
                f"shard_cache={shard_cache!r}: the uncached shard mode was "
                "removed; shards bank whenever the run has a stage cache"
            )
        self.chunk_size = chunk_size
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self._inputs: Any = None
        self._config: Any = None
        self._shm: Any = None
        self._shm_size = 0
        self._shard_ctx: tuple[Any, str, Any] | None = None

    def _resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        if "fork" in multiprocessing.get_all_start_methods():
            return "fork"
        return "spawn"

    def start(self, inputs: Any, config: Any) -> None:
        # Install the inputs in the parent first: with the fork start
        # method the workers inherit them copy-on-write and nothing is
        # pickled; it also lets the parent service run_inline stages.
        # Kept on the backend so a broken pool can be rebuilt mid-run.
        self._inputs = inputs
        self._config = config
        kernels.set_context(inputs, config)
        self._release_shm()
        if self._resolved_start_method() == "spawn":
            self._create_shm()
        self._spawn_pool()

    def _create_shm(self) -> None:
        """Pickle the inputs once into a shared-memory block.

        Segment-backed tables reduce to their paths here, so the image
        stays small; in-RAM bundles pay one pickled copy total instead
        of one per worker — and pool rebuilds after injected crashes
        *reattach* to the same block rather than re-copying anything.
        """
        from multiprocessing import shared_memory

        payload = pickle.dumps((self._inputs, self._config), protocol=5)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, len(payload))
        )
        self._shm.buf[: len(payload)] = payload
        self._shm_size = len(payload)

    def _release_shm(self) -> None:
        if self._shm is None:
            return
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        try:
            self._shm.unlink()
        except OSError:
            pass
        self._shm = None
        self._shm_size = 0

    def _spawn_pool(self) -> None:
        method = self._resolved_start_method()
        if method == "fork":
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("fork"),
            )
        else:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=kernels.worker_init_shm,
                initargs=(self._shm.name, self._shm_size),
            )

    def _rebuild_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._spawn_pool()

    # -- shard caching ---------------------------------------------------------

    def set_shard_context(self, cache: StageCache, fingerprint: str) -> None:
        from repro.cache.resume import ResumeManifest

        self._shard_ctx = (cache, fingerprint, ResumeManifest(cache.root))

    def clear_shard_context(self) -> None:
        self._shard_ctx = None

    # -- the shard scheduler --------------------------------------------------

    def _shard_ranges(self, n: int) -> list[tuple[int, int]]:
        """Contiguous ``(lo, hi)`` index ranges covering ``range(n)``.

        The shard count depends only on ``jobs`` / ``chunk_size``, never
        on ``n`` beyond capping — so a fault plan's deterministic crash
        ordinal survives population rescaling, and resume keys (which
        fold in ``n_shards``) stay stable across re-runs.
        """
        if self.chunk_size:
            count = max(1, math.ceil(n / self.chunk_size))
        else:
            count = min(n, self.jobs * _SHARDS_PER_WORKER)
        return [(i * n // count, (i + 1) * n // count) for i in range(count)]

    def _submit_shard(
        self, kernel_name: str, items: Sequence, lo: int, hi: int,
        ordinal: int, attempt: int,
    ):
        fault = self._chunk_fault(kernel_name, ordinal, attempt)
        return self._pool.submit(
            kernels.run_chunk, kernel_name, items[lo:hi], fault
        )

    def map(self, kernel_name: str, items: Sequence) -> list:
        """Run a kernel over contiguous ``(lo, hi)`` shards of ``items``.

        Each shard ships ``items[lo:hi]``; a ``range`` slices to a
        ``range``, so an ordinal sweep sends two ints per shard and the
        parent never materializes the items.  When a shard context is
        installed (the executor is computing a cacheable stage of a
        cached run), each shard probes the cache first and stores its
        results on completion, giving interrupted runs shard-granular
        resume; the ``shards.*`` counters are recorded only then, so an
        uncached pool run counts exactly what a serial run counts.
        """
        if self._pool is None:
            raise RuntimeError("backend not started")
        n = len(items)
        if not n:
            return []
        ranges = self._shard_ranges(n)
        registry = get_registry()
        cache = fingerprint = manifest = None
        if self._shard_ctx is not None:
            cache, fingerprint, manifest = self._shard_ctx
            registry.inc("shards.total", len(ranges))
        results: list = [None] * n
        keys: list[str | None] = [None] * len(ranges)
        pending: list[int] = []
        resumed = 0
        for ordinal, (lo, hi) in enumerate(ranges):
            if cache is not None:
                shard_key = _shard_key(
                    fingerprint, kernel_name, n, len(ranges), ordinal
                )
                keys[ordinal] = shard_key
                entry = cache.get(shard_key)
                if entry is not None:
                    results[lo:hi] = entry.products["results"]
                    resumed += 1
                    continue
            pending.append(ordinal)
        if resumed:
            registry.inc("shards.resumed", resumed)
        max_attempts = self._max_attempts()
        attempts = {ordinal: 0 for ordinal in pending}
        futures = {
            ordinal: self._submit_shard(
                kernel_name, items, *ranges[ordinal], ordinal, 0
            )
            for ordinal in pending
        }
        for position, ordinal in enumerate(pending):
            lo, hi = ranges[ordinal]
            while True:
                attempt = attempts[ordinal]
                try:
                    pid, seconds, shard_results, obs = futures[ordinal].result()
                except WorkerFault as exc:
                    attempts[ordinal] += 1
                    if attempts[ordinal] >= max_attempts:
                        raise RetryBudgetExceeded(
                            f"kernel {kernel_name!r} shard {ordinal} failed "
                            f"{max_attempts} times"
                        ) from exc
                    self._record_retry(kernel_name, "crash", attempt)
                    time.sleep(self._backoff_seconds(attempt))
                    futures[ordinal] = self._submit_shard(
                        kernel_name, items, lo, hi, ordinal, attempts[ordinal]
                    )
                except BrokenProcessPool as exc:
                    attempts[ordinal] += 1
                    if attempts[ordinal] >= max_attempts:
                        raise RetryBudgetExceeded(
                            f"process pool broke {max_attempts} times running "
                            f"kernel {kernel_name!r}"
                        ) from exc
                    self._record_retry(kernel_name, "pool_rebuild", attempt)
                    time.sleep(self._backoff_seconds(attempt))
                    self._rebuild_pool()
                    # A broken pool voids every outstanding future —
                    # resubmit all uncollected shards.
                    for later in pending[position:]:
                        futures[later] = self._submit_shard(
                            kernel_name, items, *ranges[later], later,
                            attempts[later],
                        )
                else:
                    self._record(
                        TaskEvent(pid, seconds, hi - lo, kernel_name, obs)
                    )
                    results[lo:hi] = shard_results
                    if cache is not None:
                        registry.inc("shards.computed")
                        cache.put(
                            keys[ordinal],
                            f"shard:{kernel_name}",
                            StageStats(n_in=hi - lo, n_out=len(shard_results)),
                            {"results": list(shard_results)},
                        )
                        manifest.record(
                            fingerprint, kernel_name, n, len(ranges),
                            ordinal, keys[ordinal],
                        )
                    break
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._release_shm()
        self._shard_ctx = None


def _shard_key(
    fingerprint: str, kernel: str, n_items: int, n_shards: int, ordinal: int
) -> str:
    """The cache key of one shard's results.

    Derived from the stage fingerprint (which already folds in the input
    bundle, fault plan, config, and stage-chain identity) plus the shard
    geometry, so a resumed run with identical inputs lands on the same
    keys while any change to the population or shard count misses.
    """
    payload = f"{fingerprint}|{kernel}|{n_items}|{n_shards}|{ordinal}"
    return blake2b(payload.encode("utf-8"), digest_size=24).hexdigest()
