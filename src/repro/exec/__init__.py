"""Staged execution engine for the five-step pipeline.

The paper's funnel is a chain of stages over a shared context; this
package separates *what* each stage computes (``Stage`` implementations
live next to their domain logic in :mod:`repro.core.pipeline`) from
*how* the work is scheduled:

* ``stage`` — the :class:`Stage` protocol, the shared
  :class:`StageContext` every stage reads from and writes to, and
  :func:`fingerprint_chain`, the stage list's cache key material.
* ``backends`` — pluggable schedulers: :class:`SerialBackend` runs
  kernels inline; :class:`ProcessPoolBackend` splits the embarrassingly
  parallel fan-outs (deployment mapping, inspection) into contiguous
  ``(lo, hi)`` shards across worker processes.
* ``kernels`` — the picklable per-item work functions the backends
  dispatch, operating on worker-global pipeline inputs.
* ``executor`` — :class:`PipelineExecutor` drives the stage list and
  records :class:`RunMetrics`.
* ``metrics`` — per-stage wall time, cardinalities, worker utilization,
  and the JSON run-manifest round-trip.

Both backends are required to produce byte-identical pipeline reports;
``tests/test_exec.py`` enforces the equivalence across seeds.
"""

from repro.exec.backends import ExecutionBackend, ProcessPoolBackend, SerialBackend
from repro.exec.executor import PipelineExecutor
from repro.exec.metrics import (
    MANIFEST_SCHEMA,
    RetryEvent,
    RunMetrics,
    StageMetrics,
    StageStats,
    TaskEvent,
    format_run_metrics,
)
from repro.exec.stage import Stage, StageContext, fingerprint_chain

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "PipelineExecutor",
    "MANIFEST_SCHEMA",
    "RetryEvent",
    "RunMetrics",
    "StageMetrics",
    "StageStats",
    "TaskEvent",
    "format_run_metrics",
    "Stage",
    "StageContext",
    "fingerprint_chain",
]
