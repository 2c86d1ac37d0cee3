"""Subprocess-isolated peak-RSS measurement of one pipeline run.

Peak RSS (``getrusage .ru_maxrss``) is a process-lifetime high-water
mark — once an in-RAM baseline has run in a process, a segment-backed
run in the same process can never measure below it.  So the memory
benchmarks execute each workload in a fresh interpreter::

    python -m repro.obs.rss_probe segment --dir SEGDIR [--jobs N]
    python -m repro.obs.rss_probe inram --scale N [--active N] [--jobs N]

and read one JSON object from stdout: the run's wall seconds, findings
count, and peak RSS of the probe process itself plus the maximum the
pool workers self-reported (gauge ``workers.rss_bytes``; getrusage on
reaped children is useless here — a forked worker inherits the parent's
``ru_maxrss``).  ``repro.obs.perf.measure_segments`` and
``benchmarks/test_bench_segments.py`` drive it; nothing else imports
this module.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import sys
import time
from typing import Any

PROBE_SCHEMA = "repro.obs.rss-probe/1"

#: ``ru_maxrss`` unit: kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


def _self_peak_rss() -> int:
    # ``ru_maxrss`` can survive fork+exec (the child starts life already
    # carrying the launching process's high-water mark), which would make
    # every probe spawned from a fat benchmark parent report the parent's
    # footprint.  ``VmHWM`` belongs to the mm the exec created, so it
    # counts only this interpreter; fall back to getrusage off Linux.
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            match = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
        if match:
            return int(match.group(1)) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_UNIT




def _make_backend(args: argparse.Namespace):
    from repro.exec import ProcessPoolBackend, SerialBackend

    if args.jobs <= 1:
        return SerialBackend()
    return ProcessPoolBackend(
        jobs=args.jobs,
        start_method=None if args.backend == "auto" else args.backend,
    )


def _run(inputs: Any, args: argparse.Namespace) -> dict[str, Any]:
    from repro.core.pipeline import HijackPipeline

    backend = _make_backend(args)
    start = time.perf_counter()
    report, metrics = HijackPipeline(inputs).profile(backend)
    seconds = time.perf_counter() - start
    rss_self = _self_peak_rss()
    # Pool workers self-sample VmRSS at chunk boundaries and ship the
    # readings home as the ``workers.rss_bytes`` max-gauge — the only
    # measurement a forked worker can make that does not inherit the
    # parent's high-water mark (see repro.obs.memory.current_rss_bytes).
    rss_workers = int(metrics.metrics.get("gauges", {}).get("workers.rss_bytes", 0))
    return {
        "schema": PROBE_SCHEMA,
        "jobs": args.jobs,
        "seconds": round(seconds, 6),
        "findings": len(report.findings),
        "funnel_domains": report.funnel.n_domains,
        "peak_rss_self_bytes": rss_self,
        "peak_rss_workers_bytes": rss_workers,
        "peak_rss_bytes": max(rss_self, rss_workers),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs.rss_probe")
    sub = parser.add_subparsers(dest="workload", required=True)

    def _common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=2)
        p.add_argument(
            "--backend", choices=["auto", "fork", "spawn"], default="auto"
        )

    segment = sub.add_parser("segment", help="segment-backed run over --dir")
    segment.add_argument("--dir", required=True)
    _common(segment)

    inram = sub.add_parser("inram", help="in-RAM scale world run")
    inram.add_argument("--scale", type=int, required=True)
    inram.add_argument("--active", type=int, default=200)
    inram.add_argument("--seed", type=int, default=0)
    _common(inram)

    args = parser.parse_args(argv)
    if args.workload == "segment":
        from repro.segments import load_segment_inputs

        inputs = load_segment_inputs(args.dir)
    else:
        from repro.world.scale import scale_world

        inputs = scale_world(args.scale, n_active=args.active, seed=args.seed)

    result = _run(inputs, args)
    result["workload"] = args.workload
    json.dump(result, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
