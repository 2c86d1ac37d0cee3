"""The cross-scenario evaluation arena.

The arena is the scenario-diversity counterpart to ``BENCH_perf.json``:
it sweeps every registered detector across the registered scenario
packs — optionally through a fault plan, so methods are compared on the
*same* degraded view — and scores each (pack, detector) cell against
the pack's ground-truth ledger.  One committed ``BENCH_arena.json``
records the leaderboard of record.

Mechanically each pack is one :class:`repro.exec.PipelineExecutor` run:
every detector is a :class:`repro.exec.Stage` whose product is its
serialized :class:`DetectorFindings`, so arena cells ride the existing
stage cache (same spec + same inputs = cache hit, findings restored
without re-running detection) and every pack gets a standard run
manifest.

Scoring is set-based — flagged domains against the ledger — and lives
here, in one place: :func:`score_sets` is also what the deprecated
``repro.baseline.compare_methods`` shim delegates to.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.detect.base import DetectorFindings, restrict_inputs
from repro.detect.registry import create_detector, list_detectors
from repro.exec.metrics import RunMetrics, StageStats
from repro.exec.stage import Stage, StageContext

if TYPE_CHECKING:
    from repro.cache.store import StageCache
    from repro.exec.backends import ExecutionBackend
    from repro.obs.ledger import RunLedger, RunRecord

ARENA_SCHEMA = "repro.bench.arena/1"


# -- scoring -------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorScore:
    """Set-based precision/recall of one method on one scenario."""

    method: str
    precision: float
    recall: float
    tp: int = 0
    fp: int = 0
    fn: int = 0
    n_flagged: int = 0
    n_truth: int = 0

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def score_sets(
    method: str, flagged: Iterable[str], truth: Iterable[str]
) -> DetectorScore:
    """Score a flagged-domain set against a ground-truth set.

    Conventions match the historical ``compare_methods``: an empty
    flagged set has precision 1.0 (no false claims were made), an empty
    truth set has recall 1.0 (nothing was there to find).
    """
    flagged_set = frozenset(flagged)
    truth_set = frozenset(truth)
    tp = len(flagged_set & truth_set)
    fp = len(flagged_set - truth_set)
    fn = len(truth_set - flagged_set)
    return DetectorScore(
        method=method,
        precision=tp / len(flagged_set) if flagged_set else 1.0,
        recall=tp / len(truth_set) if truth_set else 1.0,
        tp=tp,
        fp=fp,
        fn=fn,
        n_flagged=len(flagged_set),
        n_truth=len(truth_set),
    )


# -- the sweep -----------------------------------------------------------------


@dataclass(frozen=True)
class ArenaConfig:
    """The run-key configuration of one arena pack run.

    A frozen dataclass so :func:`repro.cache.derive_run_key` digests it
    per field; the detector list is part of the key because the stage
    chain (and therefore every fingerprint) depends on it.
    """

    detectors: tuple[str, ...]
    schema: str = ARENA_SCHEMA


@dataclass
class ArenaContext(StageContext):
    """One pack's shared state: the degraded bundle plus the study."""

    study: Any = None
    findings: dict[str, DetectorFindings] = field(default_factory=dict)


class DetectorStage(Stage):
    """One arena cell: fit (if needed), restrict inputs, detect."""

    parallel = False
    cache_version = 1
    config_deps = None  # the whole ArenaConfig (detector list) matters

    def __init__(self, detector_name: str) -> None:
        self.detector_name = detector_name
        self.name = f"detect:{detector_name}"
        self.products = (f"findings:{detector_name}",)

    def run(self, ctx: ArenaContext, backend: ExecutionBackend) -> StageStats:
        detector = create_detector(self.detector_name)
        fit_start = time.perf_counter()
        if detector.requires_fit:
            detector.fit(ctx.study)
        fit_seconds = time.perf_counter() - fit_start
        restricted = restrict_inputs(ctx.inputs, detector.inputs)
        detect_start = time.perf_counter()
        findings = detector.detect(restricted)
        detect_seconds = time.perf_counter() - detect_start
        ctx.findings[self.detector_name] = findings
        return StageStats(
            n_in=len(ctx.inputs.scan.domains()),
            n_out=len(findings.flagged()),
            detail={
                "fit_seconds": round(fit_seconds, 6),
                "detect_seconds": round(detect_seconds, 6),
                "inputs": list(detector.inputs),
            },
        )

    def cache_products(self, ctx: ArenaContext) -> dict[str, Any]:
        # Entries store the JSON-safe findings dict, never live objects.
        return {self.products[0]: ctx.findings[self.detector_name].to_dict()}

    def restore_products(self, ctx: ArenaContext, products: dict) -> None:
        ctx.findings[self.detector_name] = DetectorFindings.from_dict(
            products[self.products[0]]
        )


@dataclass
class ArenaCell:
    """One (pack, detector) result."""

    pack: str
    detector: str
    score: DetectorScore
    fit_seconds: float
    detect_seconds: float
    cached: bool = False
    stats: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "pack": self.pack,
            "detector": self.detector,
            "precision": round(self.score.precision, 6),
            "recall": round(self.score.recall, 6),
            "f1": round(self.score.f1, 6),
            "tp": self.score.tp,
            "fp": self.score.fp,
            "fn": self.score.fn,
            "n_flagged": self.score.n_flagged,
            "n_truth": self.score.n_truth,
            "fit_seconds": round(self.fit_seconds, 6),
            "detect_seconds": round(self.detect_seconds, 6),
            "cached": self.cached,
            "stats": [[name, value] for name, value in self.stats],
        }


@dataclass
class ArenaResult:
    """Everything one arena sweep produced."""

    packs: tuple[str, ...]
    detectors: tuple[str, ...]
    faults: str
    cells: list[ArenaCell]
    manifests: dict[str, RunMetrics]
    findings: dict[tuple[str, str], DetectorFindings]

    def cell(self, pack: str, detector: str) -> ArenaCell | None:
        for cell in self.cells:
            if cell.pack == pack and cell.detector == detector:
                return cell
        return None

    def leaderboard(self) -> list[dict[str, Any]]:
        """Per-detector means across packs, best mean F1 first."""
        rows = []
        for detector in self.detectors:
            cells = [c for c in self.cells if c.detector == detector]
            if not cells:
                continue
            n = len(cells)
            rows.append(
                {
                    "detector": detector,
                    "mean_f1": round(sum(c.score.f1 for c in cells) / n, 6),
                    "mean_precision": round(
                        sum(c.score.precision for c in cells) / n, 6
                    ),
                    "mean_recall": round(
                        sum(c.score.recall for c in cells) / n, 6
                    ),
                    "total_detect_seconds": round(
                        sum(c.detect_seconds for c in cells), 6
                    ),
                    "packs": n,
                }
            )
        rows.sort(key=lambda r: (-r["mean_f1"], r["detector"]))
        return rows


def run_arena(
    packs: Sequence[str] | None = None,
    detectors: Sequence[str] | None = None,
    *,
    seed: int | None = None,
    n_background: int | None = None,
    faults: Any = None,
    fault_seed: int = 0,
    cache: StageCache | None = None,
    studies: dict[str, Any] | None = None,
    ledger: RunLedger | None = None,
) -> ArenaResult:
    """Sweep detectors across scenario packs and score every cell.

    ``packs`` / ``detectors`` default to everything registered.  ``seed``
    and ``n_background`` override each pack's canonical defaults (so CI
    smoke runs can shrink the worlds).  ``faults`` is a fault spec
    (grammar string or parsed :class:`repro.faults.FaultSpec`) applied
    to every pack's input bundle *before* any detector sees it — one
    shared degraded view, not per-detector luck.  Passing
    ``studies`` (pack name → prebuilt ``StudyDatasets``) skips pack
    construction for those names; unknown names there need no
    registration at all.  ``ledger`` takes a
    :class:`repro.obs.RunLedger`: the sweep appends one ``arena``
    record carrying its leaderboard rows so the regression sentinel can
    watch detection quality (mean F1) drift across history.
    """
    import repro.detect  # noqa: F401  (registers the built-ins)
    from repro.core.pipeline import PipelineInputs
    from repro.faults import DataQuality, FaultPlan, apply_faults
    from repro.world.scenarios import build_pack, list_packs

    pack_names = tuple(packs) if packs is not None else tuple(list_packs())
    detector_names = (
        tuple(detectors) if detectors is not None else tuple(list_detectors())
    )
    plan = FaultPlan.from_spec(faults, seed=fault_seed)
    faults_text = plan.spec.format() if not plan.is_empty else ""
    config = ArenaConfig(detectors=detector_names)
    sweep_start = time.perf_counter()

    cells: list[ArenaCell] = []
    manifests: dict[str, RunMetrics] = {}
    all_findings: dict[tuple[str, str], DetectorFindings] = {}
    for pack in pack_names:
        if studies is not None and pack in studies:
            study = studies[pack]
        else:
            study = build_pack(pack, seed=seed, n_background=n_background)
        quality = DataQuality()
        bundle = apply_faults(PipelineInputs.from_study(study), plan, quality)
        ctx = ArenaContext(
            inputs=bundle, config=config, quality=quality, study=study
        )
        run_key = None
        if cache is not None:
            from repro.cache.fingerprint import derive_run_key

            run_key = derive_run_key(bundle, plan, config)
        from repro.exec.executor import PipelineExecutor

        executor = PipelineExecutor(
            [DetectorStage(name) for name in detector_names],
            cache=cache,
            run_key=run_key,
        )
        metrics = executor.execute(ctx)
        manifests[pack] = metrics
        truth = set(study.ground_truth.domains())
        for name in detector_names:
            findings = ctx.findings[name]
            all_findings[(pack, name)] = findings
            stage = metrics.stage(f"detect:{name}")
            detail = stage.detail if stage else {}
            cells.append(
                ArenaCell(
                    pack=pack,
                    detector=name,
                    score=score_sets(name, findings.flagged(), truth),
                    fit_seconds=float(detail.get("fit_seconds", 0.0)),
                    detect_seconds=float(detail.get("detect_seconds", 0.0)),
                    cached=bool(stage.cached) if stage else False,
                    stats=findings.stats,
                )
            )
    result = ArenaResult(
        packs=pack_names,
        detectors=detector_names,
        faults=faults_text,
        cells=cells,
        manifests=manifests,
        findings=all_findings,
    )
    if ledger is not None:
        from repro.obs.ledger import record_run

        wall_seconds = time.perf_counter() - sweep_start
        record_run(
            ledger,
            lambda: _arena_record(result, config, plan, faults_text, wall_seconds),
        )
    return result


def _arena_record(
    result: ArenaResult,
    config: ArenaConfig,
    plan: Any,
    faults_text: str,
    wall_seconds: float,
) -> RunRecord:
    """The sweep's ledger record, leaderboard attached."""
    from repro.cache.fingerprint import config_digest
    from repro.obs.ledger import arena_record, data_fault_digest, ledger_key

    cfg_digest = config_digest(config)
    faults_digest = data_fault_digest(plan)
    label = "arena:" + ",".join(result.packs)
    return arena_record(
        key=ledger_key(
            "arena",
            label,
            config_digest=cfg_digest,
            faults_digest=faults_digest,
            backend="serial",
            jobs=1,
        ),
        label=label,
        leaderboard=result.leaderboard(),
        wall_seconds=wall_seconds,
        config_digest=cfg_digest,
        faults_digest=faults_digest,
        faults=faults_text,
    )


# -- the committed summary -----------------------------------------------------


def arena_summary(result: ArenaResult) -> dict[str, Any]:
    """The ``BENCH_arena.json`` payload for one sweep."""
    return {
        "schema": ARENA_SCHEMA,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "packs": list(result.packs),
        "detectors": list(result.detectors),
        "faults": result.faults,
        "leaderboard": result.leaderboard(),
        "cells": [cell.to_dict() for cell in result.cells],
        "manifests": {
            pack: manifest.to_dict()
            for pack, manifest in sorted(result.manifests.items())
        },
    }


def write_arena_summary(result: ArenaResult, path: str | Path) -> dict[str, Any]:
    """Write the summary JSON and return the payload."""
    import json

    payload = arena_summary(result)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def validate_arena_summary(payload: dict[str, Any]) -> list[str]:
    """Schema-check a ``BENCH_arena.json`` payload; returns problems.

    Used by CI: an empty list means the file is well-formed.
    """
    problems: list[str] = []
    if payload.get("schema") != ARENA_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {ARENA_SCHEMA!r}"
        )
    for key in ("python", "packs", "detectors", "leaderboard", "cells", "manifests"):
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    cell_keys = {
        "pack", "detector", "precision", "recall", "f1",
        "tp", "fp", "fn", "n_flagged", "n_truth",
        "fit_seconds", "detect_seconds", "cached",
    }
    for index, cell in enumerate(payload.get("cells", [])):
        missing = cell_keys - set(cell)
        if missing:
            problems.append(f"cell {index} missing {sorted(missing)}")
            continue
        for rate in ("precision", "recall", "f1"):
            value = cell[rate]
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                problems.append(
                    f"cell {index} ({cell['pack']}/{cell['detector']}): "
                    f"{rate}={value!r} out of [0, 1]"
                )
    expected = {
        (pack, detector)
        for pack in payload.get("packs", [])
        for detector in payload.get("detectors", [])
    }
    present = {
        (c.get("pack"), c.get("detector")) for c in payload.get("cells", [])
    }
    for pack, detector in sorted(expected - present):
        problems.append(f"missing cell for pack={pack!r} detector={detector!r}")
    for pack in payload.get("packs", []):
        if pack not in payload.get("manifests", {}):
            problems.append(f"missing run manifest for pack {pack!r}")
    return problems


def format_arena(result: ArenaResult) -> str:
    """Render a sweep as the leaderboard plus the per-cell table."""
    lines = []
    faults = f" faults={result.faults!r}" if result.faults else ""
    lines.append(
        f"arena: {len(result.detectors)} detectors x "
        f"{len(result.packs)} packs{faults}"
    )
    lines.append("")
    header = (
        f"{'detector':<18} {'mean F1':>8} {'mean P':>8} {'mean R':>8} "
        f"{'detect s':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in result.leaderboard():
        lines.append(
            f"{row['detector']:<18} {row['mean_f1']:>8.3f} "
            f"{row['mean_precision']:>8.3f} {row['mean_recall']:>8.3f} "
            f"{row['total_detect_seconds']:>9.3f}"
        )
    lines.append("")
    header = (
        f"{'pack':<12} {'detector':<18} {'P':>6} {'R':>6} {'F1':>6} "
        f"{'TP':>4} {'FP':>4} {'FN':>4} {'detect':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cell in result.cells:
        suffix = " (cached)" if cell.cached else ""
        lines.append(
            f"{cell.pack:<12} {cell.detector:<18} "
            f"{cell.score.precision:>6.2f} {cell.score.recall:>6.2f} "
            f"{cell.score.f1:>6.2f} {cell.score.tp:>4} {cell.score.fp:>4} "
            f"{cell.score.fn:>4} {cell.detect_seconds:>8.3f}s{suffix}"
        )
    return "\n".join(lines)


__all__ = [
    "ARENA_SCHEMA",
    "ArenaCell",
    "ArenaConfig",
    "ArenaContext",
    "ArenaResult",
    "DetectorScore",
    "DetectorStage",
    "arena_summary",
    "format_arena",
    "run_arena",
    "score_sets",
    "validate_arena_summary",
    "write_arena_summary",
]
