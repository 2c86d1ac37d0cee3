"""Picklable per-item work functions dispatched by the backends.

A kernel maps a chunk of items to a result per item, using only the
process-global pipeline inputs installed by :func:`set_context` — set
in the parent before the pool forks (workers inherit them copy-on-
write) or, on spawn-only platforms, sent once per worker through
:func:`worker_init`.  Either way the heavyweight datasets are never
re-pickled per chunk.  Kernels must be pure per-item maps —
``kernel(a + b) == kernel(a) + kernel(b)`` — which is what lets the
serial and process-pool backends produce identical products regardless
of sharding.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Sequence

from repro.faults.errors import InjectedWorkerCrash
from repro.faults.plan import CRASH, SLOW
from repro.obs.metrics import drain_worker_snapshot, mark_worker

_INPUTS: Any = None
_CONFIG: Any = None

KERNELS: dict[str, Callable[[Sequence], list]] = {}


def kernel(name: str) -> Callable:
    def register(fn: Callable[[Sequence], list]) -> Callable[[Sequence], list]:
        KERNELS[name] = fn
        return fn

    return register


def set_context(inputs: Any, config: Any) -> None:
    """Install the pipeline inputs kernels operate on (per process)."""
    global _INPUTS, _CONFIG
    _INPUTS = inputs
    _CONFIG = config


def worker_init(inputs: Any, config: Any) -> None:
    """Process-pool initializer: runs once in every worker."""
    set_context(inputs, config)
    mark_worker()


def worker_init_shm(name: str, size: int) -> None:
    """Spawn-path initializer: attach to the parent's shared-memory
    input image instead of receiving a pickled copy per worker.

    The parent pickled ``(inputs, config)`` once into a
    ``multiprocessing.shared_memory`` block; every worker (including
    replacements after a pool rebuild) reattaches to the same block, so
    the payload crosses process boundaries exactly once regardless of
    pool size or crash count.
    """
    from multiprocessing import shared_memory

    import pickle

    # Attaching re-registers the block with the resource tracker the
    # worker inherited from the parent; registrations collapse in the
    # tracker's name set, and the parent's single ``unlink`` on close
    # balances them — workers never unregister (doing so would strip
    # the parent's own registration from the shared tracker).
    block = shared_memory.SharedMemory(name=name)
    inputs, config = pickle.loads(bytes(block.buf[:size]))
    block.close()
    set_context(inputs, config)
    mark_worker()


def run_chunk(
    name: str, chunk: Sequence, fault: str | None = None
) -> tuple[int, float, list, tuple]:
    """Execute one chunk: (pid, busy seconds, per-item results, obs).

    ``chunk`` is one shard's slice of the stage's items — a ``range`` of
    domain ordinals for the deployment sweep, so that shard's descriptor
    pickles as two ints.

    ``fault`` is a directive the parent drew from its fault plan before
    dispatch: ``"crash"`` raises :class:`InjectedWorkerCrash` before any
    work happens (the backend's retry loop catches it), ``"slow:MS"``
    sleeps ``MS`` milliseconds first.  ``None`` — the only value an
    empty plan ever produces — leaves the kernel untouched.

    ``obs`` piggybacks this process's observability data on the return
    path: the chunk's (start, end) ``perf_counter`` readings — spanning
    any injected slowdown, unlike the busy seconds — plus the process's
    drained metrics snapshot (None when nothing was recorded).  The
    executor grafts the timings into the trace as task-chunk spans and
    merges the snapshot into the run's registry.
    """
    chunk_start = time.perf_counter()
    if fault is not None:
        if fault == CRASH:
            raise InjectedWorkerCrash(
                f"injected worker crash in kernel {name!r} (pid {os.getpid()})"
            )
        if fault.startswith(SLOW):
            time.sleep(int(fault.split(":", 1)[1]) / 1000.0)
    start = time.perf_counter()
    results = KERNELS[name](chunk)
    end = time.perf_counter()
    obs = (chunk_start, end, drain_worker_snapshot())
    return os.getpid(), end - start, results, obs


# -- the pipeline's kernels ----------------------------------------------------


@kernel("deployment")
def _deployment_kernel(ordinals: range) -> list:
    """Step 1: the encoded deployment maps of a domain-*ordinal* range.

    ``scan.domains()[i]`` and CSR position ``i`` name the same domain,
    so the sweep indexes ``csr_off`` directly and never decodes a domain
    string — on a segment-backed table the worker faults only the CSR
    index pages, not the domain pool, for the (overwhelming) majority
    of domains whose encoding comes back empty.  Results are the compact
    int-tuple encoding (interned pool ids, not object graphs; see
    ``domain_map_encoder``), which the deployment stage decodes
    against the parent's table.

    Domains with no in-period deployments encode as ``()``, not ``[]``:
    the empty tuple is a shared singleton on both sides of the pickle,
    so at population scale the parent's dense result list costs one
    pointer per empty domain instead of a distinct empty-list object.
    """
    from repro.core.deployment import domain_map_encoder

    encode = domain_map_encoder(_INPUTS.scan, _INPUTS.periods, _CONFIG.max_gap_scans)
    return [encode(index) or () for index in ordinals]


@kernel("classify")
def _classify_kernel(items: list) -> list:
    """Step 2: classify each domain's encoded maps in interned-id space.

    Items are the deployment stage's ``(domain, encoded_maps)`` pairs;
    each result is the domain's ``(period_index, EncodedClassification)``
    tuple.  Nothing is decoded: the classifier compares scan-calendar
    indices and pool ids directly (see ``classify_encoded``), and the
    only calendar quantity — the transient span in days — reads from the
    periods' scan-date ordinals, computed once per chunk.
    """
    from repro.core.patterns import classify_domain_encoded, scan_date_ordinals

    date_ords = scan_date_ordinals(_INPUTS.scan, _INPUTS.periods)
    return [
        classify_domain_encoded(encoded_maps, date_ords, _CONFIG.patterns)
        for _domain, encoded_maps in items
    ]


@kernel("inspect")
def _inspect_kernel(entries: list) -> list:
    """Step 4: corroborate shortlisted entries against pDNS and CT.

    Returns each result in its compact wire form — pDNS-table row ids
    and ``(fingerprint, publication ordinal)`` CT references, not the
    evidence object graphs — which the stage decodes against the parent
    process's columnar tables (the same payload its cache entry stores).
    """
    from repro.core.inspection import Inspector, encode_inspection

    inspector = Inspector(_INPUTS.pdns, _INPUTS.crtsh, _CONFIG.inspection)
    return [
        encode_inspection(result, _INPUTS.pdns, _INPUTS.crtsh)
        for result in inspector.inspect_many(entries)
    ]
