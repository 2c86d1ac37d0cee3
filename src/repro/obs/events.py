"""Run events: the executor's one observer channel.

The executor reports each run boundary once — run and stage start and
finish, cache hits, completed task chunks, absorbed faults — as one
structured event to one sink.  Events are plain dicts —
``{"event": <name>, "ts": <unix seconds>, "perf": <perf counter>,
...}`` — so sinks can be composed freely:

* :class:`JsonlEventSink` appends one JSON line per event to a file
  (the ``--events FILE`` stream; schema ``repro.obs.events/1``);
* :class:`TTYProgressSink` renders a single self-overwriting progress
  line (``[3/6] inspect … eta 0.4s``) on a terminal stream;
* :class:`repro.obs.Tracer` folds the events into the run → stage →
  task span tree (``--trace FILE``);
* :class:`CompositeEventSink` fans one emission out to several sinks.

Event names and payloads:

================  ============================================================
``run_start``     ``backend``, ``jobs``, ``pid`` (the executor's process),
                  ``total_stages``, ``stages`` (names)
``stage_start``   ``stage``, ``index`` (1-based), ``total``, ``parallel``
``cache_hit``     ``stage``, ``fingerprint`` — the stage was restored from
                  the stage cache and runs no kernels
``chunk``         ``stage``, ``kernel``, ``pid`` (the executing process),
                  ``items``, ``seconds``, and the chunk's ``start`` /
                  ``end`` perf-counter readings taken inside that process
``retry``         ``stage``, ``kernel``, ``kind`` (crash / pool_rebuild /
                  slow), ``attempt``
``stage_finish``  ``stage``, ``index``, ``total``, ``wall_seconds``,
                  ``cached``, ``n_in``, ``n_out``, ``eta_seconds``
                  (estimated time to run end from mean stage cost so far)
``run_finish``    ``wall_seconds``, ``total_stages``
================  ============================================================

Every event additionally carries ``ts`` (wall-clock Unix seconds) and
``perf`` (the emitting process's ``time.perf_counter()``, the timebase
trace spans are drawn in).  The report is required to be byte-identical
with events enabled or disabled — sinks observe the run, they never
steer it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, IO

EVENTS_SCHEMA = "repro.obs.events/1"


class EventSink:
    """Base sink: receives every run event; default drops them."""

    def emit(self, event: dict[str, Any]) -> None:  # pragma: no cover - interface
        pass

    def close(self) -> None:
        """Flush and release resources; emitting afterwards is undefined."""


#: Shared inert sink — the executor's default; every emit is a no-op.
NULL_EVENTS = EventSink()


class JsonlEventSink(EventSink):
    """Append events as JSON lines to a file (the ``--events`` stream).

    The first line is a header record carrying the schema tag, so a
    reader can reject streams written by an incompatible build.  Lines
    are flushed as written: a crashed run leaves a readable prefix, and
    a tail process sees stages the moment they finish.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._write({"event": "header", "schema": EVENTS_SCHEMA})

    def _write(self, event: dict[str, Any]) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def emit(self, event: dict[str, Any]) -> None:
        self._write(event)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class TTYProgressSink(EventSink):
    """One self-overwriting progress line on a terminal stream.

    Renders stage transitions only (chunk events would redraw far too
    often to read); the line is erased by a final newline at run end so
    subsequent output starts clean.
    """

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream
        self._dirty = False

    def _render(self, text: str) -> None:
        self.stream.write("\r\x1b[2K" + text)
        self.stream.flush()
        self._dirty = True

    def emit(self, event: dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "stage_start":
            self._render(
                f"[{event['index']}/{event['total']}] {event['stage']} ..."
            )
        elif kind == "stage_finish":
            eta = event.get("eta_seconds")
            suffix = " (cached)" if event.get("cached") else ""
            eta_text = f" eta {eta:.1f}s" if isinstance(eta, (int, float)) else ""
            self._render(
                f"[{event['index']}/{event['total']}] {event['stage']} "
                f"{event['wall_seconds'] * 1e3:.0f}ms{suffix}{eta_text}"
            )
        elif kind == "retry":
            self._render(
                f"retry: {event['kernel']} {event['kind']} "
                f"(attempt {event['attempt'] + 1})"
            )
        elif kind == "run_finish" and self._dirty:
            self.stream.write("\r\x1b[2K")
            self.stream.flush()
            self._dirty = False

    def close(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False


class CompositeEventSink(EventSink):
    """Fan one emission out to several sinks, in order."""

    def __init__(self, sinks: list[EventSink]) -> None:
        self.sinks = list(sinks)

    def emit(self, event: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class EventRecorder(EventSink):
    """Test helper: keep every event in memory."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        self.events.append(dict(event))

    def of(self, kind: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e.get("event") == kind]


def stamp(event: dict[str, Any]) -> dict[str, Any]:
    """Attach the wall-clock and perf-counter stamps every event carries."""
    event["ts"] = round(time.time(), 6)
    event["perf"] = time.perf_counter()
    return event


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Load an events JSONL stream, validating the header line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    events = [json.loads(line) for line in lines if line.strip()]
    if not events or events[0].get("schema") != EVENTS_SCHEMA:
        raise ValueError(
            f"{path}: not a {EVENTS_SCHEMA} event stream "
            f"(header: {events[0] if events else None!r})"
        )
    return events


__all__ = [
    "EVENTS_SCHEMA",
    "CompositeEventSink",
    "EventRecorder",
    "EventSink",
    "JsonlEventSink",
    "NULL_EVENTS",
    "TTYProgressSink",
    "read_events",
    "stamp",
]
