"""Performance accounting: the ``BENCH_perf.json`` summary.

One JSON document per profiled run, recording what the perf trajectory
tracks across commits and Python versions:

* per-stage wall times (straight from the run manifest);
* dataset footprint — row/domain counts, resident typed-array bytes of
  the columnar :class:`~repro.scan.table.ScanTable`, and the pickled
  payload the process backends ship to spawn workers;
* opt-in by environment, the segment data plane against the in-RAM
  bundle (``segments``) and an incremental epoch apply against a full
  cold rerun (``epochs``).

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
    """Incremental epoch apply vs full cold rerun over the merged data.

    Builds one ``n_domains`` scale world, runs it once against a stage
    cache (the banked base products an operator would already have),
    generates a deterministic ``fraction`` epoch delta, and measures
    the two paths to the same merged-dataset report:

    * ``epoch_seconds`` — :func:`repro.epochs.run_epoch` over the base
      with the warm cache: overlay merge, dirty-set computation, cache
      seeding from the base products, and the seeded pipeline run;
    * ``full_seconds`` — the counterfactual without the epoch engine:
      the merged table rebuilt from the full concatenated row stream
      (interning + CSR indexing, what regenerating the dataset costs),
      then a cold run against a fresh cache (cold fingerprints, every
      stage recomputed and stored).  Row tuples are materialized
      *outside* the timer — reading the source data is common to both
      workflows, the rebuild and the cold run are not.

    ``identical`` is the oracle (byte-identity of the two reports) and
    ``speedup`` the CI-floored headline: a ≤1% delta must not pay for
    the 99% it carried over.
    """
    import tempfile
    from dataclasses import replace

    from repro.cache import StageCache
    from repro.core.pipeline import HijackPipeline
    from repro.epochs import merge_inputs, run_epoch
    from repro.io.golden import encode_report
    from repro.scan.dataset import ScanDataset
    from repro.scan.table import _SENSITIVE, _TRUSTED, ScanTable
    from repro.world.scale import make_delta, scale_world

    inputs = scale_world(n_domains, n_active=n_active, seed=seed)
    delta = make_delta(inputs, seed=seed, fraction=fraction)

    with tempfile.TemporaryDirectory(prefix="repro-epoch-bench-") as tmp:
        cache = StageCache(tmp)
        t0 = time.perf_counter()
        HijackPipeline(inputs).profile(cache=cache)
        base_seconds = time.perf_counter() - t0
        gc.collect()

        t0 = time.perf_counter()
        report, metrics, _dirty = run_epoch(inputs, delta, cache=cache)
        epoch_seconds = time.perf_counter() - t0
    gc.collect()

    merged = merge_inputs(inputs, delta)
    table = merged.scan.table
    rows = [
        (
            table.date_ord[r],
            table.ips[table.ip_id[r]],
            table.asns[table.asn_id[r]],
            table.certs[table.cert_id[r]],
            table.countries[table.country_id[r]],
            table.port_sets[table.ports_id[r]],
            table.name_sets[table.names_id[r]],
            table.base_sets[table.bases_id[r]],
            bool(table.flags[r] & _TRUSTED),
            bool(table.flags[r] & _SENSITIVE),
        )
        for r in range(len(table.date_ord))
    ]
    gc.collect()

    with tempfile.TemporaryDirectory(prefix="repro-epoch-bench-") as tmp:
        t0 = time.perf_counter()
        builder = ScanTable.build()
        for row in rows:
            builder.append_row(*row)
        rebuilt = ScanDataset.from_table(
            builder.finish(),
            merged.scan.scan_dates,
            known_missing_dates=merged.scan.known_missing_dates,
        )
        rebuild_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        full_report, _ = HijackPipeline(replace(merged, scan=rebuilt)).profile(
            cache=StageCache(tmp)
        )
        full_run_seconds = time.perf_counter() - t0
    full_seconds = rebuild_seconds + full_run_seconds
    del rows
    gc.collect()

    stats = metrics.epoch or {}
    return {
        "n_domains": n_domains,
        "n_active": n_active,
        "fraction": fraction,
        "delta": delta.counts(),
        "base_seconds": round(base_seconds, 6),
        "epoch_seconds": round(epoch_seconds, 6),
        "rebuild_seconds": round(rebuild_seconds, 6),
        "full_run_seconds": round(full_run_seconds, 6),
        "full_seconds": round(full_seconds, 6),
        "speedup": round(full_seconds / epoch_seconds, 2)
        if epoch_seconds > 0
        else None,
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
    # Likewise for the incremental-epoch comparison: one base run plus a
    # full cold rerun at 10^5-10^6 domains is the expensive half of the
    # measurement, so it only runs where CI budgets for it.
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
