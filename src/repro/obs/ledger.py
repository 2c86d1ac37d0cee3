"""The run ledger: an append-only, checksummed history of every run.

A long-running detection service is only trustworthy if every run
leaves a durable, comparable record.  The ledger is that record: one
append per pipeline, epoch or arena run, written at run end by the
run's owner from the finished run manifest through :func:`record_run`
(which logs and swallows a failed append), holding the run's key
digests (config, fault plan), per-stage wall/busy times and memory
samples, cache accounting, the metrics-registry snapshot, the
canonical report digest, and — for arena runs — the leaderboard rows.

On-disk layout (schema ``repro-ledger/1``) under ``REPRO_LEDGER_DIR``
(default ``.repro-ledger/``)::

    <root>/index.jsonl             one line per run, append-only
    <root>/records/<aa>/<digest>.json   content-addressed full records

Each index line carries the record's relative path plus a blake2b
checksum of the record file's bytes, so corruption anywhere — a
truncated index line from a crashed append, a bit-flipped or truncated
record file — is a detectable *skip*: the bad entry is evicted from
reads (and its record file unlinked when the checksum fails), never a
crash and never a silently wrong baseline.

The record filename is the digest of the record's canonical JSON, so
identical content dedupes on disk while the index preserves the append
order; ``run_id`` is ``<seq>-<digest prefix>`` which keeps ids unique
even for byte-identical re-runs.

The *ledger key* groups comparable runs: the regression sentinel
(:mod:`repro.obs.sentinel`) builds its rolling baseline from runs with
the candidate's key.  The key folds in the run kind, configuration
digest, backend shape, and the **data-channel** fault digest only —
worker faults (injected crashes/slowdowns) perturb timing but are
required not to change outputs, so a slowdown-injected run lands in the
same key bucket as its clean baseline and the sentinel can flag it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.atomic import atomic_write
from repro.io.golden import canonical_json

if TYPE_CHECKING:
    from repro.exec.metrics import RunMetrics
    from repro.faults.plan import FaultPlan

logger = logging.getLogger("repro.obs.ledger")

LEDGER_SCHEMA = "repro-ledger/1"
LEDGER_ENV_VAR = "REPRO_LEDGER_DIR"
DEFAULT_LEDGER_DIR = ".repro-ledger"

_DIGEST_BYTES = 16
_CHECKSUM_BYTES = 16
#: How much of the index's end :meth:`RunLedger._next_seq` reads: a
#: dozen lines, so the next seq costs the same at any history length.
_SEQ_TAIL_BYTES = 4096


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).hexdigest()


def _ends_line(handle) -> bool:
    """Whether the file ``handle`` has open ends in a newline."""
    handle.seek(-1, os.SEEK_END)
    return handle.read(1) == b"\n"


def _checksum(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=_CHECKSUM_BYTES).hexdigest()


# -- the record ----------------------------------------------------------------


@dataclass
class RunRecord:
    """Everything the ledger keeps about one run."""

    kind: str  # "pipeline" | "arena"
    key: str  # the matching-key digest baselines group by
    label: str  # human-readable run description
    recorded_at: str  # ISO-8601 UTC
    backend: str
    jobs: int
    wall_seconds: float
    stages: list[dict[str, Any]] = field(default_factory=list)
    funnel: dict[str, Any] = field(default_factory=dict)
    cache: dict[str, Any] | None = None
    memory: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None
    data_quality: dict[str, Any] | None = None
    config_digest: str = ""
    faults_digest: str = ""
    faults: str = ""  # the spec string, for humans
    report_digest: str | None = None
    leaderboard: list[dict[str, Any]] | None = None
    run_id: str = ""  # assigned by append()

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": LEDGER_SCHEMA,
            "run_id": self.run_id,
            "kind": self.kind,
            "key": self.key,
            "label": self.label,
            "recorded_at": self.recorded_at,
            "backend": self.backend,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "stages": self.stages,
            "funnel": self.funnel,
            "cache": self.cache,
            "memory": self.memory,
            "metrics": self.metrics,
            "data_quality": self.data_quality,
            "config_digest": self.config_digest,
            "faults_digest": self.faults_digest,
            "faults": self.faults,
            "report_digest": self.report_digest,
            "leaderboard": self.leaderboard,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> RunRecord:
        if data.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"unsupported ledger record schema {data.get('schema')!r} "
                f"(expected {LEDGER_SCHEMA!r})"
            )
        return cls(
            kind=data["kind"],
            key=data["key"],
            label=data.get("label", ""),
            recorded_at=data["recorded_at"],
            backend=data.get("backend", ""),
            jobs=int(data.get("jobs", 1)),
            wall_seconds=float(data["wall_seconds"]),
            stages=list(data.get("stages", [])),
            funnel=dict(data.get("funnel", {})),
            cache=data.get("cache"),
            memory=data.get("memory"),
            metrics=data.get("metrics"),
            data_quality=data.get("data_quality"),
            config_digest=data.get("config_digest", ""),
            faults_digest=data.get("faults_digest", ""),
            faults=data.get("faults", ""),
            report_digest=data.get("report_digest"),
            leaderboard=data.get("leaderboard"),
            run_id=data.get("run_id", ""),
        )

    # -- derived figures the sentinel and diff views compare -----------------

    def stage(self, name: str) -> dict[str, Any] | None:
        for stage in self.stages:
            if stage.get("name") == name:
                return stage
        return None

    @property
    def peak_rss_bytes(self) -> int | None:
        if not self.memory:
            return None
        value = self.memory.get("peak_rss_bytes")
        return int(value) if isinstance(value, (int, float)) else None

    @property
    def cache_hit_rate(self) -> float | None:
        if not self.cache:
            return None
        probes = self.cache.get("hits", 0) + self.cache.get("misses", 0)
        return self.cache.get("hits", 0) / probes if probes else None


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One parsed line of ``index.jsonl``."""

    seq: int
    run_id: str
    kind: str
    key: str
    recorded_at: str
    wall_seconds: float
    path: str  # relative to the ledger root
    checksum: str


def _index_entry(line: str | bytes) -> IndexEntry:
    """Parse one index line; raises ValueError, KeyError or TypeError
    on a truncated line, a missing field or a wrong schema."""
    data = json.loads(line)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != LEDGER_SCHEMA:
        raise ValueError(f"schema {schema!r}")
    return IndexEntry(
        seq=int(data["seq"]),
        run_id=data["run_id"],
        kind=data["kind"],
        key=data["key"],
        recorded_at=data["recorded_at"],
        wall_seconds=float(data["wall_seconds"]),
        path=data["path"],
        checksum=data["checksum"],
    )


# -- key derivation ------------------------------------------------------------


def data_fault_digest(plan: FaultPlan) -> str:
    """Digest of the plan's *data-channel* identity only.

    Worker-channel faults (crashes, slowdowns, retry policy) are
    absorbed by the backends and must not change outputs; excluding
    them keys a slowdown-injected run identically to a clean one, which
    is what lets the sentinel compare the two.  An all-worker (or
    empty) plan normalizes to the empty digest regardless of seed, for
    the same reason an empty plan's seed is normalized in the cache.
    """
    from repro.cache.fingerprint import value_digest

    spec = plan.spec
    data_channels = {
        "drop_weeks": spec.drop_weeks,
        "drop_ports": spec.drop_ports,
        "pdns_blackouts": spec.pdns_blackouts,
        "pdns_blackout_days": spec.pdns_blackout_days,
        "ct_delay_days": spec.ct_delay_days,
        "routing_stale": spec.routing_stale,
    }
    if not any(
        data_channels[name]
        for name in (
            "drop_weeks", "drop_ports", "pdns_blackouts",
            "ct_delay_days", "routing_stale",
        )
    ):
        return ""
    return value_digest({"seed": plan.seed, **data_channels})


def ledger_key(
    kind: str,
    label: str,
    *,
    config_digest: str,
    faults_digest: str,
    backend: str,
    jobs: int,
    extra: Any = None,
) -> str:
    """The matching-key digest comparable runs share.

    ``faults_digest`` should be the :func:`data_fault_digest` so that
    timing-only worker faults do not fragment the baseline.
    """
    from repro.cache.fingerprint import value_digest

    return value_digest(
        {
            "kind": kind,
            "label": label,
            "config": config_digest,
            "faults": faults_digest,
            "backend": backend,
            "jobs": jobs,
            "extra": extra,
        }
    )


def record_from_metrics(metrics: RunMetrics, **identity: Any) -> RunRecord:
    """Assemble a ledger record from a finished run's manifest.

    ``identity`` holds the :class:`RunRecord` fields the manifest cannot
    know: ``kind``, ``key`` and ``label``, plus the config and fault
    digests, the fault spec and the report digest where the run has them.
    """
    return RunRecord(
        recorded_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        backend=metrics.backend,
        jobs=metrics.jobs,
        wall_seconds=round(metrics.wall_seconds, 6),
        stages=[stage.to_dict() for stage in metrics.stages],
        funnel=dict(metrics.funnel),
        cache=metrics.cache,
        memory=metrics.memory,
        metrics=metrics.metrics,
        data_quality=metrics.data_quality,
        **identity,
    )


def record_run(ledger: RunLedger, build: Callable[[], RunRecord]) -> str | None:
    """Append the record ``build()`` returns; the run id, or None on failure.

    Telemetry must never fail a run that computed its answer: a failure
    to build or append the record is logged and swallowed.
    """
    try:
        run_id = ledger.append(build())
    except Exception:
        logger.warning(
            "ledger: failed to record run in %s", ledger.root, exc_info=True
        )
        return None
    logger.debug("ledger: recorded run %s", run_id)
    return run_id


# -- the store -----------------------------------------------------------------


def ledger_dir_from_env() -> str | None:
    """The environment-configured ledger directory, if any."""
    return os.environ.get(LEDGER_ENV_VAR) or None


class RunLedger:
    """Append-only, checksummed on-disk run history."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root or ledger_dir_from_env() or DEFAULT_LEDGER_DIR)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Entries dropped by the last read because of corruption.
        self.evicted: int = 0

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def _record_path(self, relative: str) -> Path:
        return self.root / relative

    # -- appending -------------------------------------------------------------

    def append(self, record: RunRecord) -> str:
        """Write the record file, then the index line; returns run_id.

        The record file lands first (atomically), so a crash between
        the two steps leaves an orphaned record — garbage the next gc
        collects — never an index line pointing at nothing.  A crash
        inside the index append leaves an unterminated last line; the
        next append terminates it first, so the torn line stays one
        evicted entry and never swallows a new one.
        """
        seq = self._next_seq()
        payload_dict = record.to_dict()
        payload_dict["run_id"] = ""  # the id derives from the content
        payload = canonical_json(payload_dict).encode("utf-8")
        digest = _digest(payload)
        record.run_id = f"{seq:06d}-{digest[:12]}"
        payload_dict["run_id"] = record.run_id
        # Compact canonical JSON: the C encoder, where indenting would
        # run the pure-Python one over every stage and metric.
        blob = (canonical_json(payload_dict) + "\n").encode("utf-8")
        relative = f"records/{digest[:2]}/{digest}.json"
        path = self._record_path(relative)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as handle:
            handle.write(blob)
        line = json.dumps(
            {
                "schema": LEDGER_SCHEMA,
                "seq": seq,
                "run_id": record.run_id,
                "kind": record.kind,
                "key": record.key,
                "recorded_at": record.recorded_at,
                "wall_seconds": record.wall_seconds,
                "path": relative,
                "checksum": _checksum(blob),
            },
            sort_keys=True,
        )
        with self.index_path.open("a+b") as handle:
            torn = handle.tell() > 0 and not _ends_line(handle)
            handle.write(b"\n" * torn + line.encode("utf-8") + b"\n")
        return record.run_id

    def _next_seq(self) -> int:
        """One past the seq of the index's last readable line.

        Appends write one past the highest seq and gc keeps the order,
        so seqs rise down the file and only its tail is parsed, not the
        whole history; a torn or corrupt line carries none, so the scan
        steps back over it.  (gc drops old lines, so the line count is
        not a seq.)
        """
        try:
            with self.index_path.open("rb") as handle:
                start = max(0, handle.seek(0, os.SEEK_END) - _SEQ_TAIL_BYTES)
                handle.seek(start)
                lines = handle.read().splitlines()
        except OSError:
            return 0
        if start:
            del lines[0]  # the tail may begin mid-line
        for line in reversed(lines):
            try:
                return _index_entry(line).seq + 1
            except (ValueError, KeyError, TypeError):
                continue
        # No readable line in the tail: parse the whole index.
        return max((entry.seq + 1 for entry in self.entries()), default=0)

    # -- reading ---------------------------------------------------------------

    def entries(self) -> list[IndexEntry]:
        """Every readable index entry, oldest first.

        Corrupt lines — truncated JSON from a crashed append, missing
        fields, a wrong schema — are skipped and counted in
        :attr:`evicted`, so one bad line never takes the history down.
        """
        self.evicted = 0
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except OSError:
            return []
        entries: list[IndexEntry] = []
        for lineno, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                entries.append(_index_entry(line))
            except (ValueError, KeyError, TypeError) as error:
                self.evicted += 1
                logger.warning(
                    "ledger %s: skipping corrupt index line %d (%s)",
                    self.index_path, lineno + 1, error,
                )
        return entries

    def load_entry(self, entry: IndexEntry) -> RunRecord | None:
        """Load and verify one record; evicts the file on bad checksum."""
        path = self._record_path(entry.path)
        try:
            blob = path.read_bytes()
        except OSError:
            self.evicted += 1
            return None
        if _checksum(blob) != entry.checksum:
            self.evicted += 1
            logger.warning(
                "ledger %s: checksum mismatch for %s; evicting record file",
                self.root, entry.run_id,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            return RunRecord.from_dict(json.loads(blob))
        except (ValueError, KeyError, TypeError):
            self.evicted += 1
            return None

    def load(self, run_id: str) -> RunRecord | None:
        """Load one run by id (or unique id prefix)."""
        matches = [
            e for e in self.entries()
            if e.run_id == run_id or e.run_id.startswith(run_id)
        ]
        exact = [e for e in matches if e.run_id == run_id]
        if exact:
            matches = exact
        if len(matches) != 1:
            return None
        return self.load_entry(matches[0])

    def records(
        self,
        *,
        kind: str | None = None,
        key: str | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Matching runs, oldest first; corrupt entries skipped."""
        selected = [
            e
            for e in self.entries()
            if (kind is None or e.kind == kind)
            and (key is None or e.key == key)
        ]
        if limit is not None:
            selected = selected[-limit:]
        loaded = (self.load_entry(e) for e in selected)
        return [r for r in loaded if r is not None]

    def latest(
        self, *, kind: str | None = None, key: str | None = None
    ) -> RunRecord | None:
        records = self.records(kind=kind, key=key, limit=1)
        return records[-1] if records else None

    # -- maintenance -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Counts and latest-run figures for the OpenMetrics exporter."""
        entries = self.entries()
        kinds: dict[str, int] = {}
        for entry in entries:
            kinds[entry.kind] = kinds.get(entry.kind, 0) + 1
        last = entries[-1] if entries else None
        return {
            "runs": len(entries),
            "kinds": kinds,
            "evicted": self.evicted,
            "last_run_id": last.run_id if last else None,
            "last_recorded_at": last.recorded_at if last else None,
            "last_wall_seconds": last.wall_seconds if last else None,
        }

    def gc(self, keep: int) -> dict[str, int]:
        """Compact to the newest ``keep`` runs.

        Rewrites the index atomically with the surviving entries and
        unlinks record files nothing references anymore (including
        orphans from interrupted appends).
        """
        entries = self.entries()
        kept = entries[-keep:] if keep > 0 else []
        dropped = len(entries) - len(kept)
        lines = []
        referenced: set[Path] = set()
        for entry in kept:
            referenced.add(self._record_path(entry.path).resolve())
            lines.append(
                json.dumps(
                    {
                        "schema": LEDGER_SCHEMA,
                        "seq": entry.seq,
                        "run_id": entry.run_id,
                        "kind": entry.kind,
                        "key": entry.key,
                        "recorded_at": entry.recorded_at,
                        "wall_seconds": entry.wall_seconds,
                        "path": entry.path,
                        "checksum": entry.checksum,
                    },
                    sort_keys=True,
                )
            )
        with atomic_write(self.index_path) as handle:
            handle.write("".join(line + "\n" for line in lines).encode("utf-8"))
        removed_files = 0
        for path in self.root.glob("records/??/*.json"):
            if path.resolve() not in referenced:
                try:
                    path.unlink()
                    removed_files += 1
                except OSError:
                    pass
        return {
            "kept": len(kept),
            "dropped_entries": dropped,
            "removed_files": removed_files,
        }


# -- formatting ----------------------------------------------------------------


def format_runs_table(records: Iterable[RunRecord]) -> str:
    """Render runs as the ``repro-hunt runs list`` table, oldest first."""
    header = (
        f"{'run':<20} {'kind':<9} {'recorded (UTC)':<21} {'backend':<8} "
        f"{'wall':>9} {'rss':>9} {'cache':>11} {'key':<12}"
    )
    lines = [header, "-" * len(header)]
    for record in records:
        rss = record.peak_rss_bytes
        rss_text = f"{rss / (1024 * 1024):.0f}M" if rss else "-"
        if record.cache:
            cache_text = (
                f"{record.cache.get('hits', 0)}h/{record.cache.get('misses', 0)}m"
            )
        else:
            cache_text = "-"
        lines.append(
            f"{record.run_id:<20} {record.kind:<9} "
            f"{record.recorded_at.replace('+00:00', 'Z'):<21} "
            f"{record.backend:<8} {record.wall_seconds:>8.3f}s {rss_text:>9} "
            f"{cache_text:>11} {record.key[:12]:<12}"
        )
    return "\n".join(lines)


def diff_records(old: RunRecord, new: RunRecord) -> list[dict[str, Any]]:
    """Per-metric deltas between two runs (``runs diff`` rows).

    Covers total wall, per-stage wall times, peak RSS, per-stage
    tracemalloc deltas when both runs carried them, and cache hit
    counts.  ``delta_pct`` is None when the baseline side is zero.
    """

    def _row(metric: str, a: Any, b: Any) -> dict[str, Any]:
        delta = None
        delta_pct = None
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            delta = b - a
            delta_pct = (b - a) / a * 100.0 if a else None
        return {
            "metric": metric,
            "old": a,
            "new": b,
            "delta": delta,
            "delta_pct": delta_pct,
        }

    rows = [_row("wall_seconds", old.wall_seconds, new.wall_seconds)]
    new_stages = {s.get("name"): s for s in new.stages}
    for stage in old.stages:
        name = stage.get("name")
        other = new_stages.get(name)
        if other is None:
            continue
        rows.append(
            _row(
                f"stage.{name}.wall_seconds",
                stage.get("wall_seconds"),
                other.get("wall_seconds"),
            )
        )
        mem_a = (stage.get("memory") or {}).get("tracemalloc_delta_bytes")
        mem_b = (other.get("memory") or {}).get("tracemalloc_delta_bytes")
        if mem_a is not None and mem_b is not None:
            rows.append(_row(f"stage.{name}.tracemalloc_delta_bytes", mem_a, mem_b))
    if old.peak_rss_bytes is not None and new.peak_rss_bytes is not None:
        rows.append(_row("peak_rss_bytes", old.peak_rss_bytes, new.peak_rss_bytes))
    if old.cache is not None and new.cache is not None:
        for field_name in ("hits", "misses", "stores"):
            rows.append(
                _row(
                    f"cache.{field_name}",
                    old.cache.get(field_name, 0),
                    new.cache.get(field_name, 0),
                )
            )
    return rows


def format_diff(old: RunRecord, new: RunRecord) -> str:
    """Render ``runs diff`` as an aligned delta table."""
    header = f"{'metric':<40} {'old':>14} {'new':>14} {'delta':>14}"
    lines = [
        f"diff: {old.run_id} -> {new.run_id}",
        header,
        "-" * len(header),
    ]
    for row in diff_records(old, new):
        old_v, new_v = row["old"], row["new"]

        def _fmt(v: Any) -> str:
            if isinstance(v, float):
                return f"{v:.4f}"
            return str(v) if v is not None else "-"

        if row["delta_pct"] is not None:
            delta_text = f"{row['delta_pct']:+.1f}%"
        elif row["delta"] is not None:
            delta_text = f"{row['delta']:+g}"
        else:
            delta_text = "-"
        lines.append(
            f"{row['metric']:<40} {_fmt(old_v):>14} {_fmt(new_v):>14} "
            f"{delta_text:>14}"
        )
    return "\n".join(lines)


def arena_record(
    *,
    key: str,
    label: str,
    leaderboard: list[dict[str, Any]],
    wall_seconds: float,
    config_digest: str = "",
    faults_digest: str = "",
    faults: str = "",
    funnel: dict[str, Any] | None = None,
) -> RunRecord:
    """A ledger record for one arena sweep (leaderboard rows attached)."""
    return RunRecord(
        kind="arena",
        key=key,
        label=label,
        recorded_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        backend="serial",
        jobs=1,
        wall_seconds=round(wall_seconds, 6),
        funnel=dict(funnel or {}),
        config_digest=config_digest,
        faults_digest=faults_digest,
        faults=faults,
        leaderboard=leaderboard,
    )


__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_ENV_VAR",
    "LEDGER_SCHEMA",
    "IndexEntry",
    "RunLedger",
    "RunRecord",
    "arena_record",
    "data_fault_digest",
    "diff_records",
    "format_diff",
    "format_runs_table",
    "ledger_dir_from_env",
    "ledger_key",
    "record_from_metrics",
    "record_run",
]
