"""The repository benchmark: cold, warm and epoch hunts at two scales.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 7 --seconds 30 --trace 0

One run sets the workload up (generate the world, write its
``repro-segment/1`` bundle) in fresh processes, then drives a closed
loop of op cycles from a single client process that did not generate
the world: ``cold`` hunts into an empty stage cache, ``warm`` hunts from
the cache the cold op filled, ``epoch`` applies one fresh 1% delta onto
that banked base.  Every op reopens the bundle and goes through the
public API the way ``repro-hunt hunt --segments`` and ``epoch apply``
do.  Each op's report bytes are compared with an oracle computed
outside every timer.

``--trace 0`` prints the end-to-end metrics (medians over the run's
ops); ``--trace 1`` alternates untraced and traced cycles and prints the
per-layer split of :mod:`layers`.  Timings are reported at a reference
host speed measured by :func:`probe` around every op and set-up.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
Per-op samples, tail percentiles and (traced) spans are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
if (SRC / "repro").is_dir():
    sys.path.insert(0, str(SRC))

from workloads import SETUPS, WORKLOADS  # noqa: E402

OP_KINDS = ("cold", "warm", "epoch")
STAGES = ("deployment_maps", "classify", "shortlist", "inspect", "pivot", "assemble")
#: A child process that outlives this is hung; the run fails.
CHILD_TIMEOUT_S = 120
#: What :func:`probe` takes at the reference speed timings are reported
#: at: a round figure near its time on the machine the bounds were set
#: on while its host was quiet.
PROBE_REF_S = 0.020


def probe() -> float:
    """Wall seconds of a fixed pure-Python allocation workload.

    The shared host's speed moves in phases of minutes, by up to 2.3x,
    and this probe slows with it as the program's ops do (``METRICS.md``
    has the measurements).  A timing taken between two probes is
    reported as ``seconds * reference_factor(mean probe)``.  The
    collector is off, so the probe does not time the heap the program
    left behind.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        # Six small rounds rather than one large one: the probe must not
        # raise the client's peak resident set (``peak_rss_mb``).
        for _ in range(6):
            table = {}
            for i in range(10_000):
                table[f"k{i}"] = (i, str(i))
            sorted(table)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def reference_factor(probe_s: float) -> float:
    """Scales seconds measured while :func:`probe` took ``probe_s`` to the
    reference speed."""
    return PROBE_REF_S / probe_s


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> dict:
    """Median, plus the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": _median(ordered), "tail": None}
    if n > 10:
        rank = n - 10
        summary["tail"] = {"pct": round(100 * rank / n, 1), "value": ordered[rank - 1]}
    return summary


# -- set-up ---------------------------------------------------------------------


def role_setup(args) -> None:
    """Generate the world and write its bundle; time both."""
    before = probe()
    t0 = time.perf_counter()
    from repro.segments import write_segments

    from workloads import build_world

    workload = WORKLOADS[args.workload]
    inputs = build_world(workload, args.seed)
    t1 = time.perf_counter()
    paths = write_segments(inputs, args.bundle)
    t2 = time.perf_counter()
    probe_s = (before + probe()) / 2
    times = {
        "probe_s": probe_s,
        "setup_s": t2 - t0,
        "world_s": t1 - t0,
        "segments_write_s": t2 - t1,
        "segments_bytes": sum(p.stat().st_size for p in paths.values()),
    }
    if args.oracle_inputs:
        # The paper oracles run in RAM over this very world; hand it on
        # instead of generating it a second time.
        with open(args.oracle_inputs, "wb") as handle:
            pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    Path(args.out).write_text(json.dumps(times))


# -- the op client --------------------------------------------------------------


def _vm_hwm_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


def op_layers(kind, trace, op, metrics, report, delta=None) -> dict:
    """One traced op's per-layer figures (defined in ``METRICS.md``)."""
    own = trace.self_times(op)
    counts = trace.counts(op)
    stages = metrics.stages
    pool = metrics.backend == "process"
    worker_counters = (metrics.metrics or {}).get("counters", {}) if pool else {}
    hits = counts.get("cache.get.hits", 0)
    probes = hits + counts.get("cache.get.misses", 0)
    layers = {
        "segments.open_s": own.get("segments.open", 0.0),
        "segments.bytes_mapped": counts.get("segments.open.bytes_mapped", 0),
        "cache.key_s": own.get("cache.key", 0.0),
        "cache.get_s": own.get("cache.get", 0.0),
        "cache.bytes_read": counts.get("cache.get.bytes_read", 0),
        "cache.hit_ratio": hits / probes if probes else 0.0,
        "cache.put_s": own.get("cache.put", 0.0),
        "cache.bytes_written": counts.get("cache.put.bytes_written", 0),
        "exec.run_s": own.get("exec.run", 0.0),
        "exec.start_s": own.get("exec.start", 0.0),
        "exec.close_s": own.get("exec.close", 0.0),
        "exec.map_s": own.get("exec.map", 0.0),
        "exec.busy_s": sum(s.busy_seconds for s in stages),
        # Time the parent spent inside map calls beyond the kernels' own
        # busy time per worker: pickling, IPC and scheduling.
        "exec.wait_s": counts.get("exec.map.total_s", 0.0)
        - sum(s.busy_seconds / s.workers_used for s in stages if s.workers_used),
        "exec.tasks": sum(s.tasks for s in stages),
        "exec.retries": (metrics.data_quality or {}).get("workers", {}).get("retries", 0),
        "exec.worker_rss_mb": (metrics.metrics or {}).get("gauges", {}).get(
            "workers.rss_bytes", 0
        ) / 2**20,
        "core.decode_maps_s": own.get("core.decode_maps", 0.0),
        "core.decode_other_s": own.get("core.decode_other", 0.0),
        **{f"stage.{name}.self_s": own.get(f"stage.{name}", 0.0) for name in STAGES},
        "core.maps": metrics.funnel.get("n_maps", 0),
        "core.shortlisted": metrics.funnel.get("n_shortlisted", 0),
        "core.findings": len(report.findings),
        "pdns.query_s": own.get("pdns.query", 0.0),
        "pdns.queries": counts.get("pdns.query.calls", 0)
        + worker_counters.get("inspection.pdns_lookups", 0),
        "ct.search_s": own.get("ct.search", 0.0),
        "ct.searches": counts.get("ct.search.calls", 0)
        + worker_counters.get("inspection.ct_searches", 0),
        "op.self_s": own.get(f"op.{kind}", 0.0),
    }
    if kind == "epoch":
        from workloads import delta_domains

        epoch = metrics.epoch
        n = epoch["domains"]
        dirty, reused = epoch["domains_dirty"], epoch["domains_reused"]
        layers.update(
            {
                "epochs.merge_s": own.get("epochs.merge", 0.0),
                "epochs.dirty_s": own.get("epochs.dirty", 0.0),
                "epochs.seed_s": own.get("epochs.seed", 0.0),
                "epochs.domains_dirty": dirty,
                "epochs.domains_reused": reused,
                "epochs.dirty_per_touched": dirty / max(1, len(delta_domains(delta))),
                "epochs.accounted_frac": (dirty + reused) / n,
                "epochs.seeded_frac": reused / n,
            }
        )
    return layers


def role_ops(args) -> None:
    """The single client: op cycles for ``--seconds`` (at least one)."""
    from repro.cache import StageCache
    from repro.core.pipeline import HijackPipeline
    from repro.epochs import engine
    from repro.exec import SerialBackend
    from repro.io.golden import encode_report
    from repro.segments import inputs as segment_inputs

    from layers import LayerTrace
    from workloads import epoch_delta, hunt_backend, report_digest

    workload = WORKLOADS[args.workload]
    trace = LayerTrace() if args.trace else None
    cache_root = Path(args.cache_root)
    ops: list[dict] = []

    def run_op(kind, traced, fn, delta=None, **record):
        op = len(ops)
        # Each op starts from an empty collector, as a fresh process would.
        gc.collect()
        before = probe()
        if traced:
            trace.install()
            trace.begin_op(op, kind)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # the op failed: count it, keep the loop going
            result, error = None, traceback.format_exc()
        else:
            error = None
        seconds = time.perf_counter() - t0
        if traced:
            trace.end_op()
            trace.uninstall()
        probe_s = (before + probe()) / 2
        entry = {
            "kind": kind, "seconds": seconds, "probe_s": probe_s, "traced": traced, **record
        }
        if error is None:
            report, metrics = result[0], result[1]
            entry["digest"] = report_digest(encode_report(report))
            gauges = (metrics.metrics or {}).get("gauges", {})
            entry["worker_rss_bytes"] = gauges.get("workers.rss_bytes", 0)
            if traced:
                entry["layers"] = op_layers(kind, trace, op, metrics, report, delta)
        else:
            entry["error"] = error
        ops.append(entry)

    def hunt(cache):
        inputs = segment_inputs.load_segment_inputs(args.bundle)
        return HijackPipeline(inputs).profile(hunt_backend(workload), cache=cache)

    # Closed loop: whole cycles, the next one started while time is left.
    # A traced run alternates untraced and traced cycles, so it measures
    # the tracing cost as well as the layer split.
    min_cycles = 2 if trace is not None else 1
    started = time.perf_counter()
    cycle = 0
    while cycle < min_cycles or time.perf_counter() - started < args.seconds:
        cycle += 1
        traced = trace is not None and cycle % 2 == 0
        cache = StageCache(cache_root / f"cycle-{cycle}")
        run_op("cold", traced, lambda: hunt(cache), cycle=cycle)
        run_op("warm", traced, lambda: hunt(cache), cycle=cycle)
        delta = epoch_delta(
            workload, segment_inputs.load_segment_inputs(args.bundle), args.seed, cycle
        )
        run_op(
            "epoch",
            traced,
            lambda: engine.run_epoch(
                segment_inputs.load_segment_inputs(args.bundle),
                delta,
                backend=SerialBackend(),
                cache=cache,
            ),
            delta=delta,
            cycle=cycle,
            epoch=cycle,
        )
        shutil.rmtree(cache_root)

    result = {"ops": ops, "vm_hwm_bytes": _vm_hwm_bytes()}
    if trace is not None:
        result["spans"] = trace.records()
    Path(args.out).write_text(json.dumps(result))


# -- the parent -----------------------------------------------------------------


def _child(role: str, args, *extra: str) -> None:
    """Run one set-up or op-client process to completion (killed if hung;
    its pool workers exit when their parent does)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    subprocess.run(command, check=True, timeout=CHILD_TIMEOUT_S)


def score(ops: list[dict], oracle: dict[str, str]) -> int:
    """Mark each op failed (raised, or report differs from its oracle);
    returns the number failed."""
    failed = 0
    for op in ops:
        key = f"epoch-{op['epoch']}" if op["kind"] == "epoch" else "hunt"
        op["failed"] = "error" in op or op["digest"] != oracle[key]
        failed += op["failed"]
    return failed


def timings(setups: list[dict], ops: list[dict], *, reference: bool = True) -> dict:
    """The samples of each end-to-end timing: the set-ups, then the
    untraced ops of each kind; at the reference speed unless not
    ``reference``."""

    def value(seconds: float, item: dict) -> float:
        return seconds * reference_factor(item["probe_s"]) if reference else seconds

    samples = {"setup_s": [value(s["setup_s"], s) for s in setups]}
    for kind in OP_KINDS:
        samples[f"{kind}_s"] = [
            value(op["seconds"], op) for op in ops if op["kind"] == kind and not op["traced"]
        ]
    return samples


def end_to_end(samples: dict, ops: list[dict], vm_hwm_bytes: int) -> dict:
    rss = [vm_hwm_bytes, *(op.get("worker_rss_bytes", 0) for op in ops)]
    metrics = {name: (_median(values), "s") for name, values in samples.items()}
    metrics["peak_rss_mb"] = (max(rss) / 2**20, "MB")
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_per_touched")):
        return "ratio"
    return "count"


def _at_reference(name: str, value: float, item: dict) -> float:
    """A layer figure of a set-up or op; a time at the reference speed."""
    return value * reference_factor(item["probe_s"]) if _unit(name) == "s" else value


def _op_seconds(op: dict) -> float:
    """An op's wall time at the reference speed."""
    return op["seconds"] * reference_factor(op["probe_s"])


def per_layer(setups: list[dict], ops: list[dict]) -> dict:
    metrics = {
        f"setup.{key}": (_median([_at_reference(key, s[key], s) for s in setups]), _unit(key))
        for key in ("world_s", "segments_write_s", "segments_bytes")
    }
    untraced = timings(setups, ops)
    for kind in OP_KINDS:
        traced = [op for op in ops if op["kind"] == kind and "layers" in op]
        for name in traced[0]["layers"] if traced else ():
            value = _median([_at_reference(name, op["layers"][name], op) for op in traced])
            metrics[f"{kind}.{name}"] = (value, _unit(name))
        plain = _median(untraced[f"{kind}_s"])
        timed = _median([_op_seconds(op) for op in traced])
        metrics[f"{kind}.trace.overhead_frac"] = (timed / plain - 1 if plain else 0.0, "ratio")
    metrics["host.probe_s"] = (_median([op["probe_s"] for op in ops]), "s")
    return metrics


def main(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    args.seed = seed
    work = ROOT / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        setups = []
        oracle_inputs = work / "oracle_inputs.pickle"
        for i in range(SETUPS):
            last = i == SETUPS - 1
            bundle = work / f"bundle-{i}"
            extra = ["--bundle", str(bundle), "--out", str(work / f"setup-{i}.json")]
            if last and workload.n_domains is None:
                extra += ["--oracle-inputs", str(oracle_inputs)]
            _child("setup", args, *extra)
            setups.append(json.loads((work / f"setup-{i}.json").read_text()))
            if not last:
                shutil.rmtree(bundle)

        _child(
            "ops", args,
            "--bundle", str(bundle), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--cache-root", str(work / "cache"),
            "--out", str(work / "ops.json"),
        )
        result = json.loads((work / "ops.json").read_text())
        ops = result["ops"]

        from workloads import oracle_digests

        paper_inputs = None
        if workload.n_domains is None:
            with open(oracle_inputs, "rb") as handle:
                paper_inputs = pickle.load(handle)
        epochs = sorted({op["epoch"] for op in ops if op["kind"] == "epoch"})
        oracle = oracle_digests(workload, seed, epochs, paper_inputs, ROOT / "tests" / "golden")
        failed = score(ops, oracle)

        samples = timings(setups, ops)
        if args.trace:
            metrics = per_layer(setups, ops)
            spans_path = out_dir / f"{workload.name}-seed{seed}-spans.json"
            spans_path.write_text(json.dumps(result["spans"]))
            for kind in OP_KINDS:
                traced = [op for op in ops if op["kind"] == kind and "layers" in op]
                wall = _median([_op_seconds(op) for op in traced])
                if wall:
                    covered = 1 - metrics[f"{kind}.op.self_s"][0] / wall
                    print(
                        f"{workload.name} {kind}: layer spans cover {covered:.2%} "
                        f"of the median traced op (n={len(traced)})"
                    )
        else:
            metrics = end_to_end(samples, ops, result["vm_hwm_bytes"])
        raw = timings(setups, ops, reference=False)
        tails = {name: tail(values) for name, values in samples.items()}
        for name, summary in tails.items():
            tail_text = (
                f"p{summary['tail']['pct']}={summary['tail']['value']:.4f}"
                if summary["tail"]
                else "tail=none (needs n>10)"
            )
            print(
                f"{workload.name} {name}: n={summary['n']} median={summary['median']:.4f} "
                f"{tail_text} (as timed: median={_median(raw[name]):.4f})"
            )
        probes = [item["probe_s"] for item in (*setups, *ops)]
        print(f"{workload.name}: probe median={_median(probes):.4f} s (reference {PROBE_REF_S} s)")
        print(
            f"{workload.name}: {len(ops)} ops, {failed} failed "
            f"(fail_frac={failed / len(ops):.4f})"
        )
        (out_dir / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
            json.dumps(
                {"samples": samples, "as_timed": raw, "tails": tails, "setups": setups, "ops": ops},
                indent=1,
            )
        )
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": len(ops),
                    "failed": failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the set-up and op-client child processes.
    parser.add_argument("--role", choices=("main", "setup", "ops"), default="main")
    parser.add_argument("--bundle")
    parser.add_argument("--out")
    parser.add_argument("--cache-root")
    parser.add_argument("--oracle-inputs")
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    if arguments.role == "setup":
        role_setup(arguments)
    elif arguments.role == "ops":
        role_ops(arguments)
    else:
        sys.exit(main(arguments))
