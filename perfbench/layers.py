"""Outside-in layer trace: spans around the public calls of ``src/repro``.

:class:`LayerTrace` patches module attributes and class methods at run
time and restores them on :meth:`LayerTrace.uninstall`; nothing inside
the program changes.  Each wrapped call records one span — name, start,
end, parent, op id — in memory.  Calls made in forked pool workers are
not recorded (their pid differs); what workers do is read from the
:class:`~repro.exec.metrics.RunMetrics` the op returns.

A span's *self time* is its duration minus the durations of its child
spans; :meth:`LayerTrace.self_times` sums it per span name for one op.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    #: Counts observed at this boundary (bytes, hits).
    counts: dict[str, float] = field(default_factory=dict)


def _cache_get_counts(result) -> dict[str, float]:
    if result is None:
        return {"misses": 1}
    return {"hits": 1, "bytes_read": result.nbytes}


def _cache_put_counts(result) -> dict[str, float]:
    return {"bytes_written": result}


def _open_counts(result) -> dict[str, float]:
    from repro.segments import inputs_bytes_mapped

    return {"bytes_mapped": inputs_bytes_mapped(result)}


_STAGES = (
    "DeploymentMapStage",
    "ClassificationStage",
    "ShortlistStage",
    "InspectionStage",
    "PivotStage",
    "AssembleStage",
)

#: ``(module, attribute or Class.method, span name, counts hook)``.  A
#: span name of None names the span after the stage (``stage.<name>``).
PATCHES = (
    ("repro.segments.inputs", "load_segment_inputs", "segments.open", _open_counts),
    ("repro.cache.fingerprint", "derive_run_key", "cache.key", None),
    ("repro.cache.store", "StageCache.get", "cache.get", _cache_get_counts),
    ("repro.cache.store", "StageCache.put", "cache.put", _cache_put_counts),
    ("repro.exec.backends", "SerialBackend.start", "exec.start", None),
    ("repro.exec.backends", "ProcessPoolBackend.start", "exec.start", None),
    ("repro.exec.backends", "ProcessPoolBackend.close", "exec.close", None),
    ("repro.exec.backends", "ExecutionBackend.run_inline", "exec.map", None),
    ("repro.exec.backends", "ProcessPoolBackend.map", "exec.map", None),
    ("repro.core.pipeline", "HijackPipeline.profile", "exec.run", None),
    ("repro.core.pipeline", "decode_domain_maps", "core.decode_maps", None),
    ("repro.core.pipeline", "decode_classification", "core.decode_other", None),
    ("repro.core.pipeline", "decode_shortlist", "core.decode_other", None),
    ("repro.core.pipeline", "decode_inspection", "core.decode_other", None),
    *(
        ("repro.core.pipeline", f"{cls}.{method}", None, None)
        for cls in _STAGES
        for method in ("run", "restore_products", "cache_products")
    ),
    *(
        ("repro.pdns.database", f"PassiveDNSDatabase.{method}", "pdns.query", None)
        for method in ("query_name", "query_domain", "a_history", "ns_history", "query_rdata")
    ),
    *(
        ("repro.ct.crtsh", f"CrtShService.{method}", "ct.search", None)
        for method in ("search", "search_exact", "lookup_id")
    ),
    ("repro.epochs.engine", "merge_inputs", "epochs.merge", None),
    ("repro.epochs.engine", "compute_dirty_set", "epochs.dirty", None),
    ("repro.epochs.engine", "run_epoch", "epochs.seed", None),
)


class LayerTrace:
    """Records layer spans while installed; keeps them all in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for module_name, target, name, counts in PATCHES:
            owner = importlib.import_module(module_name)
            attr = target
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            # Restore exactly what the owner held itself: an inherited
            # method is deleted again rather than pinned on the subclass.
            self._saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, self._wrap(original, name, counts))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn, name, counts):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != trace._pid:
                return fn(*args, **kwargs)
            span_name = name or f"stage.{args[0].name}"
            index = trace._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace._close(index)
            if counts is not None:
                trace.spans[index].counts = counts(result)
            return result

        return wrapper

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op: int, kind: str) -> None:
        """Open the root span every layer span of op ``op`` nests under."""
        self._op = op
        self._open(f"op.{kind}")

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = -1

    def self_times(self, op: int) -> dict[str, float]:
        """Self time per span name over op ``op``, its root included."""
        members = [(i, span) for i, span in enumerate(self.spans) if span.op == op]
        child_total: dict[int, float] = {}
        for _, span in members:
            if span.parent >= 0:
                child_total[span.parent] = (
                    child_total.get(span.parent, 0.0) + span.end - span.start
                )
        totals: dict[str, float] = {}
        for i, span in members:
            own = span.end - span.start - child_total.get(i, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def counts(self, op: int) -> dict[str, float]:
        """Per op: ``<span>.calls`` and ``<span>.total_s`` over outermost
        calls (a span nested in a same-named span is not counted again),
        plus the counts the spans observed, summed."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.op != op:
                continue
            parent = self.spans[span.parent].name if span.parent >= 0 else None
            if parent != span.name:
                for key, value in (("calls", 1), ("total_s", span.end - span.start)):
                    key = f"{span.name}.{key}"
                    totals[key] = totals.get(key, 0) + value
            for key, value in span.counts.items():
                key = f"{span.name}.{key}"
                totals[key] = totals.get(key, 0) + value
        return totals

    def records(self) -> list[dict]:
        """Every span as a JSON-ready record, for writing out at run end."""
        return [
            {
                "id": i,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "op": span.op,
                **({"counts": span.counts} if span.counts else {}),
            }
            for i, span in enumerate(self.spans)
        ]
