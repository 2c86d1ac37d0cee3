"""Performance accounting: the ``BENCH_perf.json`` summary.

One JSON document per profiled run, recording what the perf trajectory
tracks across commits and Python versions:

* per-stage wall times (straight from the run manifest);
* dataset footprint — row/domain counts, resident typed-array bytes of
  the columnar :class:`~repro.scan.table.ScanTable`, and the pickled
  payload the process backends ship to spawn workers;
* opt-in by environment, the segment data plane against the in-RAM
  bundle (``segments``) and cold, warm and epoch runs over one segment
  bundle (``epochs``).

Everything is measured on the actual study being profiled, never
hand-asserted; ``repro-hunt profile --json FILE`` writes the document
and CI uploads it as an artifact per Python version.  End-to-end
timings of whole runs, compared against the parent commit, come from
the repository benchmark (``perfbench/``, see ``perfbench/METRICS.md``).
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import platform
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.exec.metrics import RunMetrics
    from repro.scan.dataset import ScanDataset

PERF_SCHEMA = "repro.bench.perf/1"


def measure_segments(
    n_domains: int,
    baseline_domains: int | None = None,
    *,
    n_active: int = 200,
    seed: int = 0,
    jobs: int = 2,
) -> dict[str, Any]:
    """Segment data plane vs in-RAM: open latency and pooled peak RSS.

    Builds one ``n_domains`` scale world, writes it as a segment bundle,
    and measures the two quantities the segment format exists for:

    * **open latency** — remapping the bundle versus unpickling the
      in-RAM input bundle (the payload a pickle-shipping backend pays
      per process);
    * **pooled peak RSS** — a segment-backed pool run at ``n_domains``
      versus an in-RAM pooled run at ``baseline_domains`` (default:
      ``n_domains``), each probed in a fresh interpreter via
      :mod:`repro.obs.rss_probe` so neither inherits the other's
      high-water mark.

    ``rss_within_baseline`` is the headline invariant CI floors on: a
    segment-backed run at full scale must not out-consume the in-RAM
    path at baseline scale.
    """
    import subprocess
    import tempfile

    import repro
    from repro.segments import load_segment_inputs, write_segments
    from repro.world.scale import scale_world

    if baseline_domains is None:
        baseline_domains = n_domains

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def _probe(argv: list[str]) -> dict[str, Any]:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.rss_probe", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout)

    with tempfile.TemporaryDirectory(prefix="repro-seg-bench-") as tmp:
        directory = Path(tmp) / "segments"

        t0 = time.perf_counter()
        inputs = scale_world(n_domains, n_active=n_active, seed=seed)
        build_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        paths = write_segments(inputs, directory)
        write_seconds = time.perf_counter() - t0
        segment_bytes = sum(path.stat().st_size for path in paths.values())

        blob = pickle.dumps(inputs, protocol=5)
        del inputs
        gc.collect()
        t0 = time.perf_counter()
        pickle.loads(blob)
        pickle_load_seconds = time.perf_counter() - t0
        pickle_bytes = len(blob)
        del blob
        gc.collect()

        t0 = time.perf_counter()
        load_segment_inputs(directory)
        open_seconds = time.perf_counter() - t0
        gc.collect()

        seg = _probe(["segment", "--dir", str(directory), "--jobs", str(jobs)])
        inram = _probe(
            ["inram", "--scale", str(baseline_domains),
             "--active", str(n_active), "--seed", str(seed),
             "--jobs", str(jobs)]
        )

    return {
        "n_domains": n_domains,
        "baseline_domains": baseline_domains,
        "n_active": n_active,
        "jobs": jobs,
        "build_seconds": round(build_seconds, 6),
        "write_seconds": round(write_seconds, 6),
        "segment_bytes": segment_bytes,
        "pickle_bytes": pickle_bytes,
        "open_seconds": round(open_seconds, 6),
        "pickle_load_seconds": round(pickle_load_seconds, 6),
        "open_speedup": round(pickle_load_seconds / open_seconds, 2)
        if open_seconds > 0
        else None,
        "segment_run": seg,
        "inram_run": inram,
        "rss_within_baseline": seg["peak_rss_bytes"] <= inram["peak_rss_bytes"],
    }


def measure_epochs(
    n_domains: int,
    *,
    n_active: int = 200,
    seed: int = 0,
    fraction: float = 0.01,
) -> dict[str, Any]:
    """Cold, warm and epoch runs over one segment bundle.

    Builds one ``n_domains`` scale world, writes it as a segment bundle,
    and times three serial runs over it, each reopening the bundle:

    * ``cold_seconds`` — a hunt into an empty stage cache;
    * ``warm_seconds`` — the same hunt from the cache the cold run
      filled;
    * ``epoch_seconds`` — :func:`repro.epochs.run_epoch` of a
      deterministic ``fraction`` delta onto that banked base: overlay
      merge, dirty set, cache seeding from the base products, and the
      seeded run.

    ``identical`` is the oracle: the epoch report equals an uncached
    run over :func:`repro.epochs.merge_inputs`'s bundle, checked
    outside every timer.  CI floors ``epoch_seconds < cold_seconds``:
    a ≤1% delta must cost less than starting over.
    """
    import tempfile

    from repro.cache import StageCache
    from repro.core.pipeline import HijackPipeline
    from repro.epochs import merge_inputs, run_epoch
    from repro.io.golden import encode_report
    from repro.segments import load_segment_inputs, write_segments
    from repro.world.scale import make_delta, scale_world

    with tempfile.TemporaryDirectory(prefix="repro-epoch-bench-") as tmp:
        bundle = Path(tmp) / "bundle"
        write_segments(scale_world(n_domains, n_active=n_active, seed=seed), bundle)
        cache = StageCache(Path(tmp) / "cache")

        def timed(run):
            gc.collect()
            t0 = time.perf_counter()
            result = run()
            return result, time.perf_counter() - t0

        _, cold_seconds = timed(
            lambda: HijackPipeline(load_segment_inputs(bundle)).profile(cache=cache)
        )
        _, warm_seconds = timed(
            lambda: HijackPipeline(load_segment_inputs(bundle)).profile(cache=cache)
        )
        delta = make_delta(load_segment_inputs(bundle), seed=seed, fraction=fraction)
        (report, metrics, _dirty), epoch_seconds = timed(
            lambda: run_epoch(load_segment_inputs(bundle), delta, cache=cache)
        )
        full_report, _ = HijackPipeline(
            merge_inputs(load_segment_inputs(bundle), delta)
        ).profile()

    stats = metrics.epoch or {}
    return {
        "n_domains": n_domains,
        "n_active": n_active,
        "fraction": fraction,
        "delta": delta.counts(),
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "epoch_seconds": round(epoch_seconds, 6),
        "domains_dirty": stats.get("domains_dirty"),
        "domains_reused": stats.get("domains_reused"),
        "seeded": stats.get("seeded"),
        "identical": encode_report(report) == encode_report(full_report),
    }


def measure_dataset(dataset: ScanDataset) -> dict[str, Any]:
    """Footprint of the columnar scan dataset."""
    return {
        "records": len(dataset),
        "domains": len(dataset.domains()),
        "scan_dates": len(dataset.scan_dates),
        "column_bytes": dataset.table.column_bytes(),
        "columnar_pickle_bytes": len(pickle.dumps(dataset, protocol=5)),
    }


def perf_summary(
    dataset: ScanDataset, metrics: RunMetrics | None = None
) -> dict[str, Any]:
    """The full ``BENCH_perf.json`` document for one profiled run."""
    summary: dict[str, Any] = {
        "schema": PERF_SCHEMA,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "dataset": measure_dataset(dataset),
    }
    if metrics is not None:
        summary["stages"] = [
            {
                "name": stage.name,
                "wall_seconds": round(stage.wall_seconds, 6),
                "n_in": stage.n_in,
                "n_out": stage.n_out,
                "cached": stage.cached,
                "memory": dict(stage.memory) if stage.memory else None,
            }
            for stage in metrics.stages
        ]
        summary["total_wall_seconds"] = round(
            sum(stage.wall_seconds for stage in metrics.stages), 6
        )
        # Run-level memory accounting (run-manifest/5): peak RSS always,
        # tracemalloc figures when the run traced allocations.
        if metrics.memory:
            summary["memory"] = dict(metrics.memory)
    # The segment-vs-in-RAM section is opt-in by environment: building
    # and probing a 10^5-10^6-domain scale world is a CI-budget decision,
    # not something every `profile --json` should pay.
    scale = os.environ.get("REPRO_SEGMENTS_SCALE")
    if scale:
        baseline = os.environ.get("REPRO_SEGMENTS_BASELINE")
        summary["segments"] = measure_segments(
            int(scale), int(baseline) if baseline else None
        )
    # Likewise for the epoch comparison: writing and running a 10^5-10^6
    # domain bundle three times only runs where CI budgets for it.
    epochs_scale = os.environ.get("REPRO_EPOCHS_SCALE")
    if epochs_scale:
        summary["epochs"] = measure_epochs(int(epochs_scale))
    return summary


def write_perf_summary(path: str | Path, summary: dict[str, Any]) -> None:
    Path(path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


__all__ = [
    "PERF_SCHEMA",
    "measure_dataset",
    "measure_epochs",
    "measure_segments",
    "perf_summary",
    "write_perf_summary",
]
