"""Hierarchical run tracing with Chrome trace-event export.

A trace is a tree of spans — run → stage → task-chunk — plus point
events (cache hits, fault retries, injected slowdowns, pool rebuilds)
attached to whichever span was open when they happened.  The
:class:`Tracer` is an :class:`repro.obs.EventSink`: it builds the tree
by folding the executor's run events (the table is in
:mod:`repro.obs.events`), so it has no hook of its own and a run's
``--events`` stream rebuilds the same trace offline::

    tracer = Tracer()
    for event in read_events("events.jsonl"):
        tracer.emit(event)

* ``run_start`` / ``run_finish`` open and close the run span, on the
  parent's pid;
* ``stage_start`` / ``stage_finish`` open and close a stage span;
* ``chunk`` grafts a task span under the open stage: its ``start`` and
  ``end`` were measured inside the executing process and rode home on
  the chunk's ``TaskEvent``, so no extra IPC channel exists for
  tracing, and the span lands on the worker's pid so each worker
  renders as its own track;
* ``cache_hit`` and ``retry`` become instants on the innermost open
  span.  Any other event kind (the JSONL ``header`` line, say) is
  ignored.

Span times are the events' ``perf`` stamps, ``time.perf_counter()``
readings.  On platforms where that clock is system-wide (Linux
``CLOCK_MONOTONIC``) worker and parent spans share a timebase;
elsewhere worker tracks may be offset, which skews the picture but
never the durations.

Two export formats:

* :meth:`Tracer.write_jsonl` — one span per line, full structure, for
  programmatic analysis;
* :meth:`Tracer.write_chrome` — the Chrome trace-event JSON object
  format, loadable in Perfetto or ``chrome://tracing``.

An untraced run attaches no tracer and pays nothing for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.events import EventSink


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span (cache hit, retry, slowdown, rebuild)."""

    name: str
    ts: float
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One timed node of the run → stage → task-chunk hierarchy."""

    span_id: int
    parent_id: int | None
    name: str
    category: str  # "run" | "stage" | "task"
    start: float
    end: float
    pid: int
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer(EventSink):
    """Folds one run's event stream into its span tree."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._pid = 0

    # -- folding -------------------------------------------------------------

    def emit(self, event: dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "run_start":
            self._pid = event["pid"]
            self._open(
                "run", "run", event["perf"],
                backend=event["backend"], jobs=event["jobs"],
            )
        elif kind == "stage_start":
            self._open(
                event["stage"], "stage", event["perf"], parallel=event["parallel"]
            )
        elif kind in ("stage_finish", "run_finish"):
            if self._stack:
                span = self._stack.pop()
                span.end = event["perf"]
                self._spans.append(span)
        elif kind == "chunk" and "start" in event:
            self._spans.append(
                self._span(
                    f"chunk:{event['kernel']}", "task", event["start"],
                    event["end"], event["pid"], items=event["items"],
                )
            )
        elif kind == "cache_hit":
            self._instant(
                "cache_hit", event["perf"],
                stage=event["stage"], fingerprint=event["fingerprint"],
            )
        elif kind == "retry":
            self._instant(
                event["kind"], event["perf"],
                kernel=event["kernel"], attempt=event["attempt"],
            )

    def _span(
        self, name: str, category: str, start: float, end: float, pid: int,
        **attrs: Any,
    ) -> Span:
        """A new child of the innermost open span."""
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            start=start,
            end=end,
            pid=pid,
            attrs=attrs,
        )
        self._next_id += 1
        return span

    def _open(self, name: str, category: str, start: float, **attrs: Any) -> None:
        """Open a span; the matching ``*_finish`` event closes it."""
        self._stack.append(self._span(name, category, start, 0.0, self._pid, **attrs))

    def _instant(self, name: str, ts: float, **attrs: Any) -> None:
        if self._stack:
            self._stack[-1].events.append(SpanEvent(name, ts, attrs))

    # -- reading -------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Closed spans, in completion order."""
        return list(self._spans)

    def worker_pids(self) -> set[int]:
        return {span.pid for span in self._spans if span.category == "task"}

    # -- export --------------------------------------------------------------

    def _origin(self) -> float:
        return min((s.start for s in self._spans), default=0.0)

    def to_jsonl(self) -> str:
        """One JSON object per span, timestamps in µs from run start."""
        origin = self._origin()
        lines = []
        for span in self._spans:
            lines.append(
                json.dumps(
                    {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "name": span.name,
                        "category": span.category,
                        "ts_us": round((span.start - origin) * 1e6, 1),
                        "dur_us": round(span.duration * 1e6, 1),
                        "pid": span.pid,
                        "attrs": span.attrs,
                        "events": [
                            {
                                "name": e.name,
                                "ts_us": round((e.ts - origin) * 1e6, 1),
                                "attrs": e.attrs,
                            }
                            for e in span.events
                        ],
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event JSON object format.

        Spans become complete ("ph": "X") events; span events become
        instants ("ph": "i"); process-name metadata labels the parent
        and each worker track.
        """
        origin = self._origin()
        trace_events: list[dict[str, Any]] = []
        named_pids: set[int] = set()
        for span in self._spans:
            if span.pid not in named_pids:
                named_pids.add(span.pid)
                role = "worker" if span.category == "task" else "pipeline"
                trace_events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": span.pid,
                        "tid": 0,
                        "args": {"name": f"{role} (pid {span.pid})"},
                    }
                )
            trace_events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 1),
                    "dur": round(span.duration * 1e6, 1),
                    "pid": span.pid,
                    "tid": 0,
                    "args": dict(span.attrs),
                }
            )
            for event in span.events:
                trace_events.append(
                    {
                        "name": event.name,
                        "cat": span.category,
                        "ph": "i",
                        "s": "t",
                        "ts": round((event.ts - origin) * 1e6, 1),
                        "pid": span.pid,
                        "tid": 0,
                        "args": dict(event.attrs),
                    }
                )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_jsonl(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    def write_chrome(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_chrome(), indent=1) + "\n")

