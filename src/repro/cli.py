"""Command-line interface.

    repro-hunt paper [--seed N] [--background N] [--save DIR]
                     [--jobs N] [--chunk-size N] [--profile FILE]
        Build the full paper scenario, run the pipeline, print every
        analysis table, and optionally export the datasets + findings.
        ``--jobs`` shards the parallel stages across worker processes;
        ``--profile`` writes the per-stage run manifest as JSON.

    Parallel runs (``paper``, ``hunt``, ``profile``) also accept
    ``--backend {auto,fork,spawn}`` (worker start method; spawn ships the
    inputs once through shared memory).  Workers get contiguous (lo, hi)
    shards of each fan-out; with ``--cache`` every completed shard is
    banked in the stage cache, so an interrupted run resumes from its
    completed shards.

    repro-hunt quickstart
        The one-hijack demo world.

    repro-hunt hunt (--dir DIR | --segments DIR) [--jobs N] [--chunk-size N]
        Run the pipeline over a previously exported study directory
        (scan.jsonl / pdns.jsonl / ct.jsonl / as2org.jsonl) or over a
        memory-mapped segment bundle (``repro-hunt segments write``).

    repro-hunt segments {write,inspect,verify}
        Lay a study (or an ``--scale N`` synthetic world) out as a
        checksummed ``repro-segment/3`` bundle, print the verified
        header summaries, or checksum every byte of a bundle (nonzero
        exit on corruption; a run verifies only the blobs it reads).
        See docs/performance.md.

    repro-hunt epoch {apply,status,delta}
        Grow a segment bundle by epochs: ``apply DIR --delta FILE``
        merges a ``repro-delta/1`` file onto the bundle as an id-stable
        overlay and re-runs only the delta's dirty set (with ``--cache``
        the clean domains' stage products are reused from the base
        run); ``status DIR`` lists the bundle's applied-epoch history;
        ``delta`` writes a deterministic scale-world delta file.  See
        docs/performance.md.

    repro-hunt profile [--seed N] [--jobs N] [--out FILE] [--json FILE]
                       [--manifest FILE]
        Profile a paper-scenario run: per-stage wall time, funnel
        cardinalities, and worker utilization — or render a previously
        saved run manifest with ``--manifest``.

    repro-hunt gallery
        Render the canonical deployment-map patterns (Figures 3-5).

    repro-hunt monitor [--seed N]
        The Section 7.1 reactive-monitoring demo over the paper world.

    repro-hunt explain DOMAIN [--seed N] [--background N]
        Print the decision provenance for one identified victim: every
        funnel transition the domain passed through, with the scan /
        pDNS / CT / routing evidence that drove it.

    repro-hunt sweep [--parameter P]
        Threshold-sensitivity sweeps over the paper study.

    repro-hunt robustness [--trials N]
        Randomized-world trials: recall/precision across fresh worlds.

    repro-hunt arena [--packs NAMES] [--detectors NAMES] [--faults SPEC]
                     [--seed N] [--background N] [--json FILE] [--list]
        Sweep every registered detector across the scenario packs,
        scoring precision/recall/F1/latency per cell against each
        pack's ground truth, and optionally write the BENCH_arena.json
        leaderboard.  See docs/detectors.md.

    repro-hunt golden [--update] [--dir DIR]
        Check (or, with ``--update``, regenerate) the golden regression
        reports pinned under tests/golden/.

    repro-hunt cache {stats,clear,gc} [--dir DIR] [--max-bytes N]
        Inspect or maintain the content-addressed stage cache.

    repro-hunt runs {list,show,diff,check,gc} [--dir DIR]
        Query the run ledger: list recorded runs, show one record,
        diff two runs (per-stage time/memory/cache deltas), check the
        newest run against its rolling baseline (the regression
        sentinel; nonzero exit on drift), or compact old history.

    repro-hunt metrics export [--manifest FILE] [--ledger DIR]
                              [--out FILE] [--check]
        Render a run manifest's metrics registry and/or the ledger
        summary as Prometheus/OpenMetrics text.

Stage caching: ``paper``, ``hunt``, and ``profile`` accept
``--cache DIR`` (default: the ``REPRO_CACHE_DIR`` environment variable)
to reuse stage results across runs, and ``--no-cache`` to force a full
recompute even when the environment variable is set.  Warm runs are
byte-identical to cold ones; hit/miss counters land in the manifest's
``cache`` section.  See docs/caching.md.

Fault injection: ``paper``, ``hunt``, and ``profile`` accept
``--faults SPEC`` (e.g. ``scan.drop_weeks=0.1,workers.crash=0.2``) plus
``--fault-seed N``; the run degrades deterministically and its losses
are reported in the manifest's ``data_quality`` section.  See
docs/fault_injection.md for the spec grammar.

Observability: ``paper``, ``hunt``, and ``profile`` accept
``--trace FILE`` to record a hierarchical span trace of the run — FILE
gets Chrome trace-event JSON (load it in Perfetto or chrome://tracing)
and FILE.spans.jsonl the raw span stream.  They also accept
``--events FILE`` (the run's events as JSONL: run/stage/chunk
boundaries, cache hits, retries, ETA — the stream the trace is folded
from) and ``--ledger [DIR]`` (append the run's
durable record to the run ledger; defaults to ``$REPRO_LEDGER_DIR``,
``--no-ledger`` disables).  On an interactive terminal a one-line
progress display tracks the run on stderr (``--progress`` forces it,
``-q`` suppresses it).  Diagnostics go to stderr through
:mod:`logging`; tune with ``--log-level`` or silence with ``-q``
(report tables always stay on stdout).  See docs/observability.md.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from datetime import datetime
from pathlib import Path

from repro.analysis.attacker_infra import attacker_network_table, format_network_table
from repro.analysis.certificates import certificate_table, format_certificate_table
from repro.analysis.evaluation import evaluate_report
from repro.analysis.sectors import format_sector_table, sector_table
from repro.core.pipeline import HijackPipeline
from repro.core.report import format_findings_table, format_funnel
from repro.exec import (
    ExecutionBackend,
    ProcessPoolBackend,
    RunMetrics,
    SerialBackend,
    format_run_metrics,
)
from repro.faults import FaultError, FaultPlan, FaultSpec, format_data_quality
from repro.io import (
    save_as2org,
    save_ct,
    save_findings,
    save_pdns,
    save_scan_dataset,
)
from repro.obs import Tracer, format_provenance

logger = logging.getLogger("repro.cli")


def _make_backend(args: argparse.Namespace) -> ExecutionBackend:
    if args.jobs <= 1:
        return SerialBackend()
    backend = getattr(args, "backend", "auto")
    return ProcessPoolBackend(
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        start_method=None if backend == "auto" else backend,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the parallel stages (1 = serial)",
    )
    parser.add_argument(
        "--chunk-size", type=_positive_int, default=None,
        help="items per worker task (default: auto)",
    )
    parser.add_argument(
        "--backend", choices=["auto", "fork", "spawn"], default="auto",
        help="worker start method: fork inherits the inputs copy-on-write, "
        "spawn ships them once through shared memory "
        "(default: auto = fork where available, else spawn)",
    )


def _fault_spec(text: str) -> FaultSpec:
    try:
        return FaultSpec.parse(text)
    except FaultError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def _add_faults_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", type=_fault_spec, default=None, metavar="SPEC",
        help="fault-injection spec, e.g. 'scan.drop_weeks=0.1,workers.crash=0.2'"
        " (see docs/fault_injection.md)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan's deterministic draws (default: 0)",
    )


def _fault_plan(args: argparse.Namespace) -> FaultPlan:
    return FaultPlan.from_spec(args.faults, seed=args.fault_seed)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", metavar="DIR", default=os.environ.get("REPRO_CACHE_DIR"),
        help="stage-cache directory (default: $REPRO_CACHE_DIR; unset = off)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", default=False,
        help="disable the stage cache even when $REPRO_CACHE_DIR is set",
    )


def _make_cache(args: argparse.Namespace):
    if args.no_cache or not args.cache:
        return None
    from repro.cache import StageCache

    return StageCache(args.cache)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--events", metavar="FILE", default=None,
        help="write the run's live event stream as JSONL "
        "(schema repro.obs.events/1)",
    )
    parser.add_argument(
        "--progress", action="store_true", default=False,
        help="force the one-line TTY progress display even when stderr "
        "is not a terminal",
    )
    _add_ledger_args(parser)


def _add_ledger_args(parser: argparse.ArgumentParser) -> None:
    from repro.obs.ledger import DEFAULT_LEDGER_DIR, LEDGER_ENV_VAR

    parser.add_argument(
        "--ledger", metavar="DIR", nargs="?", const=DEFAULT_LEDGER_DIR,
        default=os.environ.get(LEDGER_ENV_VAR),
        help="record the run in the ledger at DIR (bare --ledger uses "
        f"{DEFAULT_LEDGER_DIR}/; default: ${LEDGER_ENV_VAR}; unset = off)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true", default=False,
        help=f"disable ledger recording even when ${LEDGER_ENV_VAR} is set",
    )


def _make_events(args: argparse.Namespace, tracer: Tracer | None):
    """The run's composite event sink, or None when nothing listens.

    The tracer (``--trace FILE``) and the JSONL stream (``--events
    FILE``) are explicit; the TTY progress line is automatic on an
    interactive stderr unless quieted.  The caller must ``close()`` the
    sink after the run (use try/finally — a crashed run still flushes
    what it saw).
    """
    from repro.obs.events import (
        CompositeEventSink,
        JsonlEventSink,
        TTYProgressSink,
    )

    sinks = [tracer] if tracer is not None else []
    if args.events:
        sinks.append(JsonlEventSink(args.events))
    quiet = getattr(args, "quiet", False)
    if args.progress or (not quiet and sys.stderr.isatty()):
        sinks.append(TTYProgressSink(sys.stderr))
    if not sinks:
        return None
    return sinks[0] if len(sinks) == 1 else CompositeEventSink(sinks)


def _close_events(sink) -> None:
    if sink is not None:
        sink.close()


def _make_ledger(args: argparse.Namespace):
    if args.no_ledger or not args.ledger:
        return None
    from repro.obs import RunLedger

    return RunLedger(args.ledger)


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a span trace: Chrome trace-event JSON at FILE "
        "(Perfetto / chrome://tracing) plus FILE.spans.jsonl",
    )


def _make_tracer(args: argparse.Namespace) -> Tracer | None:
    return Tracer() if args.trace else None


def _write_trace(tracer: Tracer | None, args: argparse.Namespace) -> None:
    if tracer is None:
        return
    tracer.write_chrome(args.trace)
    tracer.write_jsonl(f"{args.trace}.spans.jsonl")
    logger.info(
        "trace written to %s (spans: %s.spans.jsonl)", args.trace, args.trace
    )


def _print_data_quality(metrics: RunMetrics) -> None:
    if metrics.data_quality and metrics.data_quality.get("degraded"):
        from repro.faults.quality import DataQuality

        print()
        print(format_data_quality(DataQuality.from_dict(metrics.data_quality)))


def _cmd_paper(args: argparse.Namespace) -> int:
    from repro.world.scenarios import paper_study

    logger.info(
        "building paper scenario (seed=%d, background=%d)...",
        args.seed, args.background,
    )
    study = paper_study(seed=args.seed, n_background=args.background)
    backend = _make_backend(args)
    tracer = _make_tracer(args)
    events = _make_events(args, tracer)
    try:
        report, metrics = study.profile_pipeline(
            backend=backend, faults=_fault_plan(args), cache=_make_cache(args),
            events=events, ledger=_make_ledger(args),
        )
    finally:
        _close_events(events)

    _print_data_quality(metrics)
    print()
    print(format_funnel(report.funnel))
    print()
    print(format_findings_table(report.findings))
    print()
    identified = {f.domain for f in report.findings}
    print(format_sector_table(sector_table(study.ground_truth, identified)))
    print()
    print(format_network_table(attacker_network_table(study.ground_truth, identified)))
    print()
    print(format_certificate_table(certificate_table(report, study.crtsh)))
    print()
    evaluation = evaluate_report(report, study.ground_truth)
    print(
        f"score: {evaluation.n_detection_correct}/{evaluation.n_expected} exact, "
        f"precision={evaluation.precision:.2f} recall={evaluation.recall:.2f}"
    )

    if args.save:
        directory = Path(args.save)
        save_scan_dataset(study.scan, directory / "scan.jsonl")
        save_pdns(study.pdns, directory / "pdns.jsonl")
        save_ct(study.ct_log, study.revocations, directory / "ct.jsonl")
        save_as2org(study.as2org, directory / "as2org.jsonl")
        save_findings(report.findings, directory / "findings.jsonl")
        logger.info("study exported to %s/", directory)
    if args.profile:
        metrics.write(args.profile)
        logger.info("run manifest written to %s", args.profile)
    _write_trace(tracer, args)
    return 0


def _cmd_quickstart(_args: argparse.Namespace) -> int:
    from repro.world.scenarios import small_world
    from repro.world.sim import run_study

    study = run_study(small_world())
    report = study.run_pipeline()
    print(format_funnel(report.funnel))
    print()
    print(format_findings_table(report.findings))
    return 0


def _segment_failure(error: Exception) -> int:
    """Report an unusable segment bundle: exit 2, naming the error type.

    A blob verifies on its first read, so a corrupt one fails a run
    wherever the run first reaches it, at open or mid-stage alike.
    """
    print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
    return 2


def _cmd_hunt(args: argparse.Namespace) -> int:
    from repro.segments import SegmentError, load_segment_inputs

    if bool(args.dir) == bool(args.segments):
        print(
            "error: pass exactly one of --dir (JSONL export) or "
            "--segments (segment bundle)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.segments:
            logger.info("mapping segments from %s/ ...", args.segments)
            inputs = load_segment_inputs(args.segments)
            pipeline = HijackPipeline(inputs, faults=_fault_plan(args))
        else:
            directory = Path(args.dir)
            logger.info("loading study from %s/ ...", directory)
            pipeline = HijackPipeline.from_directory(
                directory, faults=_fault_plan(args)
            )
    except SegmentError as error:
        return _segment_failure(error)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    tracer = _make_tracer(args)
    events = _make_events(args, tracer)
    try:
        report, metrics = pipeline.profile(
            _make_backend(args), cache=_make_cache(args),
            events=events, ledger=_make_ledger(args),
        )
    except SegmentError as error:
        return _segment_failure(error)
    finally:
        _close_events(events)
    _print_data_quality(metrics)
    print(format_funnel(report.funnel))
    print()
    print(format_findings_table(report.findings))
    if args.out:
        save_findings(report.findings, args.out)
        logger.info("findings written to %s", args.out)
    _write_trace(tracer, args)
    return 0


def _cmd_gallery(_args: argparse.Namespace) -> int:
    from repro.analysis.gallery import render_gallery

    print(render_gallery())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.manifest:
        try:
            metrics = RunMetrics.read(args.manifest)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot read manifest: {error}", file=sys.stderr)
            return 2
        print(format_run_metrics(metrics))
        return 0

    from repro.world.scenarios import paper_study

    logger.info(
        "profiling paper scenario (seed=%d, background=%d, jobs=%d)...",
        args.seed, args.background, args.jobs,
    )
    study = paper_study(seed=args.seed, n_background=args.background)
    backend = _make_backend(args)
    tracer = _make_tracer(args)
    events = _make_events(args, tracer)
    try:
        _report, metrics = study.profile_pipeline(
            backend=backend, faults=_fault_plan(args), cache=_make_cache(args),
            events=events, memory=args.memory, ledger=_make_ledger(args),
        )
    finally:
        _close_events(events)
    print(format_run_metrics(metrics))
    _print_data_quality(metrics)
    if args.out:
        metrics.write(args.out)
        logger.info("run manifest written to %s", args.out)
    if args.json:
        from repro.obs.perf import perf_summary, write_perf_summary

        write_perf_summary(args.json, perf_summary(study.scan, metrics))
        logger.info("perf summary written to %s", args.json)
    _write_trace(tracer, args)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.reactive import ReactiveMonitor
    from repro.world.scenarios import paper_study

    study = paper_study(seed=args.seed)
    monitor = ReactiveMonitor(study.world.resolver)
    baseline_at = datetime(2017, 2, 1)
    for record in study.ground_truth.records:
        monitor.watch_from_current_state(record.domain, baseline_at)
    alerts = monitor.scan_log(study.world.ct_log)
    for alert in sorted(alerts, key=lambda a: a.issued_on):
        print(
            f"{alert.issued_on} ALERT {alert.domain:<24} {alert.reason:<18} "
            f"crt.sh={alert.crtsh_id}"
        )
    malicious = {r.crtsh_id for r in study.ground_truth.records if r.crtsh_id}
    caught = malicious & {a.crtsh_id for a in alerts}
    print(f"\ncaught {len(caught)}/{len(malicious)} malicious issuances, "
          f"{len(alerts) - len(caught)} false alarms")
    return 0


def _unknown_domain(domain: str, report) -> int:
    """The shared unknown-domain exit path: clear error, best hints.

    Suggests the finding domains *closest to what was typed* (typo
    recovery via difflib) before falling back to the first few
    identified victims, and always exits 2 — never a bare traceback.
    """
    import difflib

    known = sorted(f.domain for f in report.findings)
    print(f"error: {domain} is not an identified victim", file=sys.stderr)
    if not known:
        print("hint: this run identified no victims at all", file=sys.stderr)
        return 2
    close = difflib.get_close_matches(domain, known, n=5, cutoff=0.5)
    suggested = close if close else known[:8]
    suffix = "" if len(suggested) == len(known) else ", ..."
    print(f"hint: try one of {', '.join(suggested)}{suffix}", file=sys.stderr)
    return 2


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import format_timeline, reconstruct_timeline
    from repro.world.scenarios import paper_study

    study = paper_study(seed=args.seed)
    report = study.run_pipeline()
    finding = report.finding_for(args.domain)
    if finding is None:
        return _unknown_domain(args.domain, report)
    events = reconstruct_timeline(finding, study.scan, study.pdns, study.crtsh)
    print(format_timeline(args.domain, events))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.world.scenarios import paper_study

    logger.info(
        "building paper scenario (seed=%d, background=%d)...",
        args.seed, args.background,
    )
    study = paper_study(seed=args.seed, n_background=args.background)
    report = study.run_pipeline()
    finding = report.finding_for(args.domain)
    if finding is None:
        return _unknown_domain(args.domain, report)
    if args.json:
        import json

        from repro.io.reports import finding_to_row

        payload = json.dumps(finding_to_row(finding), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            logger.info("findings provenance written to %s", args.json)
        return 0
    print(format_provenance(finding.domain, finding.provenance))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import (
        format_sweep,
        sweep_corroboration_window,
        sweep_transient_threshold,
        sweep_visibility_floor,
    )
    from repro.world.scenarios import paper_study

    sweeps = {
        "transient": sweep_transient_threshold,
        "visibility": sweep_visibility_floor,
        "window": sweep_corroboration_window,
    }
    study = paper_study(seed=args.seed)
    selected = sweeps if args.parameter == "all" else {args.parameter: sweeps[args.parameter]}
    for runner in selected.values():
        print(format_sweep(runner(study)))
        print()
    return 0


#: The seeds whose paper-scenario reports are pinned as golden files.
GOLDEN_SEEDS = (7, 11, 13)
#: Background-domain count for the golden runs (kept small so the check
#: finishes in seconds; the funnel is identical in shape to the default).
GOLDEN_BACKGROUND = 40
#: The fault-degraded golden variant: one seed's study run under this
#: canonical data-channel fault plan (no worker channels, so every
#: backend takes the identical degradation path).  Pinned alongside the
#: fault-free reports to lock the degraded funnel's behavior too.
GOLDEN_FAULT_SEED = 11
GOLDEN_FAULT_SPEC = "scan.drop_weeks=0.2,pdns.blackouts=1,ct.delay_days=3"


def _golden_fault_plan():
    from repro.faults import FaultPlan

    return FaultPlan.from_spec(GOLDEN_FAULT_SPEC, seed=GOLDEN_FAULT_SEED)


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro.io.golden import encode_report, golden_faults_filename, golden_filename
    from repro.world.scenarios import paper_study

    directory = Path(args.dir)
    failures = 0
    variants = [
        (seed, golden_filename(seed), None) for seed in GOLDEN_SEEDS
    ]
    variants.append(
        (
            GOLDEN_FAULT_SEED,
            golden_faults_filename(GOLDEN_FAULT_SEED),
            _golden_fault_plan(),
        )
    )
    for seed, filename, faults in variants:
        study = paper_study(seed=seed, n_background=args.background)
        report = study.run_pipeline(faults=faults)
        encoded = encode_report(report)
        path = directory / filename
        if args.update:
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text(encoded)
            print(f"wrote {path} ({len(report.findings)} findings)")
        elif not path.exists():
            print(f"MISSING {path} (run with --update to create)", file=sys.stderr)
            failures += 1
        elif path.read_text() != encoded:
            print(
                f"MISMATCH {path}: pipeline output diverged from the pinned "
                "report (if the change is intentional, rerun with --update)",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(f"ok {path}")
    return 1 if failures else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import StageCache

    directory = args.dir or os.environ.get("REPRO_CACHE_DIR")
    if not directory:
        print(
            "error: no cache directory (pass --dir or set $REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    cache = StageCache(directory)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache {cache.root}: {stats.entries} entries, {stats.total_bytes} bytes")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"cache {cache.root}: removed {removed} entries")
    else:  # gc
        if args.max_bytes is None:
            print("error: gc requires --max-bytes", file=sys.stderr)
            return 2
        result = cache.gc(args.max_bytes)
        print(
            f"cache {cache.root}: evicted {result.removed} entries "
            f"({result.freed_bytes} bytes), kept {result.kept} "
            f"({result.kept_bytes} bytes)"
        )
    return 0


def _cmd_segments(args: argparse.Namespace) -> int:
    import json

    from repro.segments import SegmentError, segment_paths, verify_segment

    if args.segments_command == "write":
        directory = Path(args.out)
        if args.scale:
            from repro.world.scale import write_scale_segments

            logger.info(
                "writing %d-domain scale world to %s/ ...", args.scale, directory
            )
            paths = write_scale_segments(
                args.scale, directory, n_active=args.active, seed=args.seed
            )
        else:
            from repro.core.pipeline import PipelineInputs
            from repro.segments import write_segments
            from repro.world.scenarios import paper_study

            logger.info(
                "writing paper study (seed=%d, background=%d) to %s/ ...",
                args.seed, args.background, directory,
            )
            study = paper_study(seed=args.seed, n_background=args.background)
            paths = write_segments(PipelineInputs.from_study(study), directory)
        total = 0
        for _name, path in sorted(paths.items()):
            size = path.stat().st_size
            total += size
            print(f"wrote {path} ({size} bytes)")
        print(f"total {total} bytes in {directory}/")
        return 0

    # inspect / verify: checksum every segment of the bundle; a typed
    # SegmentError (truncation, bit flip, wrong table) fails the command
    # instead of ever surfacing garbage rows.
    failures = 0
    summaries = {}
    for name, path in sorted(segment_paths(args.dir).items()):
        if not path.exists():
            print(f"MISSING {path}", file=sys.stderr)
            failures += 1
            continue
        try:
            summaries[name] = verify_segment(path)
        except SegmentError as error:
            print(f"CORRUPT {path}: {error}", file=sys.stderr)
            failures += 1
            continue
        if args.segments_command == "verify":
            print(f"ok {path}")
    if args.segments_command == "inspect" and summaries:
        print(json.dumps(summaries, indent=2, sort_keys=True))
    return 1 if failures else 0


_EPOCH_STATE_SCHEMA = "repro.epochs.applied/1"


def _epoch_state(directory: Path) -> dict:
    import json

    path = directory / "epochs.json"
    if not path.exists():
        return {"schema": _EPOCH_STATE_SCHEMA, "epochs": []}
    data = json.loads(path.read_text())
    if data.get("schema") != _EPOCH_STATE_SCHEMA:
        raise ValueError(
            f"{path}: unsupported epoch-state schema {data.get('schema')!r}"
        )
    return data


#: The epoch engine's ``reuse_disabled`` reasons under which it reused
#: nothing.
_REUSE_OFF = ("calendar-changed", "no-base-products")


def _cmd_epoch(args: argparse.Namespace) -> int:
    import json

    if args.epoch_command == "delta":
        from repro.epochs import write_delta
        from repro.world.scale import make_delta, scale_world

        logger.info(
            "building %d-domain scale world (active=%d, seed=%d)...",
            args.scale, args.active, args.seed,
        )
        inputs = scale_world(args.scale, n_active=args.active, seed=args.seed)
        delta = make_delta(
            inputs, seed=args.seed, fraction=args.fraction, epoch=args.epoch
        )
        path = write_delta(delta, args.out)
        counts = delta.counts()
        print(
            f"wrote {path} (epoch {delta.epoch}: {counts['scan_rows']} scan "
            f"rows, {counts['pdns_observations']} pdns, "
            f"{counts['ct_entries']} ct, digest {delta.digest()[:12]})"
        )
        return 0

    directory = Path(args.dir)

    if args.epoch_command == "status":
        try:
            state = _epoch_state(directory)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        records = state["epochs"]
        if not records:
            print(f"bundle {directory}: no epochs applied")
            return 0
        print(f"bundle {directory}: {len(records)} epoch(s) applied")
        for record in records:
            print(
                f"  epoch {record['epoch']:>3}  {record['applied_at']}  "
                f"dirty {record['domains_dirty']:>6}/{record['domains']}  "
                f"reused {record['domains_reused']:>6}  "
                f"seeded {str(record['seeded']).lower():<5}  "
                f"{record['label'] or record['digest'][:12]}"
            )
        return 0

    # apply
    from repro.epochs import merge_inputs, read_delta, run_epoch
    from repro.segments import SegmentError, load_segment_inputs

    try:
        logger.info("mapping segments from %s/ ...", directory)
        inputs = load_segment_inputs(directory)
        state = _epoch_state(directory)
        # Replay already-applied epochs so the new delta lands on the
        # bundle's *current* state, not the original base segments.
        for record in state["epochs"]:
            prior = read_delta(directory / "deltas" / record["file"])
            inputs = merge_inputs(inputs, prior)
        delta = read_delta(args.delta)
    except SegmentError as error:
        return _segment_failure(error)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    tracer = _make_tracer(args)
    events = _make_events(args, tracer)
    try:
        report, metrics, _dirty = run_epoch(
            inputs, delta,
            faults=_fault_plan(args),
            backend=_make_backend(args),
            cache=_make_cache(args),
            events=events, ledger=_make_ledger(args),
            label=f"epoch-{delta.epoch}",
        )
    except SegmentError as error:
        return _segment_failure(error)
    finally:
        _close_events(events)

    _print_data_quality(metrics)
    stats = metrics.epoch or {}
    # "already-cached" reused every domain, so only the other reasons
    # turned reuse off.
    reason = stats.get("reuse_disabled")
    print(
        f"epoch {delta.epoch} ({delta.label or 'unlabeled'}): "
        f"{stats.get('domains_dirty')} dirty of "
        f"{stats.get('domains', '?')} domains, "
        f"{stats.get('domains_reused', 0)} reused"
        + (f" (reuse off: {reason})" if reason in _REUSE_OFF else "")
    )
    print()
    print(format_funnel(report.funnel))
    print()
    print(format_findings_table(report.findings))
    if args.out:
        save_findings(report.findings, args.out)
        logger.info("findings written to %s", args.out)
    if args.profile:
        metrics.write(args.profile)
        logger.info("run manifest written to %s", args.profile)

    # Bank the applied delta so the next apply (and a cold full replay)
    # reconstructs the same merged state.  Both writes are atomic: a kill
    # mid-write leaves the epoch history as it was, never truncated.
    import shutil

    from repro.atomic import atomic_write

    deltas_dir = directory / "deltas"
    deltas_dir.mkdir(parents=True, exist_ok=True)
    digest = delta.digest()
    filename = f"epoch-{len(state['epochs']) + 1:04d}-{digest[:12]}.delta"
    with open(args.delta, "rb") as source, atomic_write(deltas_dir / filename) as target:
        shutil.copyfileobj(source, target)
    state["epochs"].append(
        {
            "epoch": delta.epoch,
            "label": delta.label,
            "file": filename,
            "digest": digest,
            "applied_at": datetime.now().isoformat(timespec="seconds"),
            "counts": delta.counts(),
            "domains": stats.get("domains"),
            "domains_dirty": stats.get("domains_dirty"),
            "domains_reused": stats.get("domains_reused", 0),
            "seeded": stats.get("seeded", False),
        }
    )
    with atomic_write(directory / "epochs.json") as handle:
        handle.write((json.dumps(state, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    logger.info("epoch recorded in %s", directory / "epochs.json")
    _write_trace(tracer, args)
    return 0


def _cmd_arena(args: argparse.Namespace) -> int:
    import repro.detect  # registers the built-in detectors
    from repro.detect import list_detectors
    from repro.detect.arena import format_arena, run_arena, write_arena_summary
    from repro.world.scenarios import get_pack, list_packs

    if args.list:
        print("scenario packs:")
        for name in list_packs():
            pack = get_pack(name)
            print(f"  {name:<12} seed={pack.default_seed} "
                  f"background={pack.default_background}  {pack.description}")
        print("detectors:")
        for name in list_detectors():
            detector = repro.detect.create_detector(name)
            print(f"  {name:<18} inputs={','.join(detector.inputs)}")
        return 0

    packs = args.packs.split(",") if args.packs else None
    detectors = args.detectors.split(",") if args.detectors else None
    logger.info(
        "arena sweep: packs=%s detectors=%s",
        ",".join(packs) if packs else "all",
        ",".join(detectors) if detectors else "all",
    )
    try:
        result = run_arena(
            packs,
            detectors,
            seed=args.seed,
            n_background=args.background,
            faults=args.faults,
            fault_seed=args.fault_seed,
            cache=_make_cache(args),
            ledger=_make_ledger(args),
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    print(format_arena(result))
    if args.json:
        write_arena_summary(result, args.json)
        logger.info("arena summary written to %s", args.json)
    return 0


def _runs_ledger(args: argparse.Namespace):
    from repro.obs import RunLedger
    from repro.obs.ledger import DEFAULT_LEDGER_DIR, ledger_dir_from_env

    directory = args.dir or ledger_dir_from_env() or DEFAULT_LEDGER_DIR
    if not Path(directory).exists():
        print(
            f"error: no ledger at {directory} "
            "(pass --dir, set $REPRO_LEDGER_DIR, or record a run with --ledger)",
            file=sys.stderr,
        )
        return None
    return RunLedger(directory)


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.ledger import format_diff, format_runs_table
    from repro.obs.sentinel import Tolerances, check_run, format_sentinel

    ledger = _runs_ledger(args)
    if ledger is None:
        return 2

    if args.runs_command == "list":
        records = ledger.records(kind=args.kind, limit=args.limit)
        if not records:
            print(f"ledger {ledger.root}: no runs recorded")
            return 0
        print(f"ledger {ledger.root}: {len(records)} run(s)")
        print(format_runs_table(records))
        if ledger.evicted:
            print(
                f"warning: {ledger.evicted} corrupt entr(y/ies) evicted",
                file=sys.stderr,
            )
        return 0

    if args.runs_command == "show":
        record = ledger.load(args.run)
        if record is None:
            print(
                f"error: run {args.run!r} not found (or ambiguous / corrupt) "
                f"in {ledger.root}",
                file=sys.stderr,
            )
            return 2
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.runs_command == "diff":
        ids = args.runs
        if not ids:
            records = ledger.records(limit=2)
            if len(records) < 2:
                print(
                    f"error: ledger {ledger.root} holds {len(records)} run(s); "
                    "diff needs two (or pass run ids explicitly)",
                    file=sys.stderr,
                )
                return 2
            old, new = records[-2], records[-1]
        else:
            old, new = ledger.load(ids[0]), ledger.load(ids[1])
            if old is None or new is None:
                missing = ids[0] if old is None else ids[1]
                print(f"error: run {missing!r} not found in {ledger.root}", file=sys.stderr)
                return 2
        print(format_diff(old, new))
        return 0

    if args.runs_command == "check":
        tolerances = Tolerances.from_args(
            total_time=args.tolerance_total,
            stage_time=args.tolerance_stage,
            memory=args.tolerance_memory,
            cache_hit_rate=args.tolerance_cache,
            f1=args.tolerance_f1,
            min_stage_seconds=args.min_stage_seconds,
            min_baseline=args.min_baseline,
        )
        try:
            report = check_run(
                ledger, run_id=args.run, window=args.window,
                tolerances=tolerances,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(format_sentinel(report))
        return 0 if report.ok else 1

    # gc
    result = ledger.gc(args.keep)
    print(
        f"ledger {ledger.root}: kept {result['kept']} run(s), dropped "
        f"{result['dropped_entries']} entr(y/ies), removed "
        f"{result['removed_files']} record file(s)"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import RunLedger, render_openmetrics, validate_openmetrics
    from repro.obs.ledger import ledger_dir_from_env

    snapshot = None
    funnel = None
    if args.manifest:
        try:
            metrics = RunMetrics.read(args.manifest)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot read manifest: {error}", file=sys.stderr)
            return 2
        snapshot = metrics.metrics
        funnel = metrics.funnel
    directory = args.ledger or ledger_dir_from_env()
    ledger = (
        RunLedger(directory)
        if directory and Path(directory).exists()
        else None
    )
    if snapshot is None and ledger is None:
        print(
            "error: nothing to export (pass --manifest FILE and/or --ledger DIR)",
            file=sys.stderr,
        )
        return 2
    text = render_openmetrics(snapshot, ledger=ledger, funnel=funnel)
    if args.check:
        errors = validate_openmetrics(text)
        if errors:
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
            return 1
    if args.out:
        Path(args.out).write_text(text)
        logger.info("OpenMetrics exposition written to %s", args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.analysis.robustness import format_robustness, run_trials
    from repro.world.randomized import RandomWorldConfig

    config = RandomWorldConfig(n_victims=args.victims)
    summary = run_trials(n_trials=args.trials, first_seed=args.seed, config=config)
    print(format_robustness(summary))
    return 0 if summary.min_recall == 1.0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hunt",
        description="Retroactive identification of targeted DNS infrastructure hijacking",
    )
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        default="info", help="stderr diagnostics verbosity (default: info)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", default=False,
        help="suppress progress diagnostics (same as --log-level error)",
    )
    # The same flags are accepted after the subcommand; SUPPRESS keeps a
    # subparser's untouched defaults from clobbering root-level values.
    logging_flags = argparse.ArgumentParser(add_help=False)
    logging_flags.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        default=argparse.SUPPRESS, help=argparse.SUPPRESS,
    )
    logging_flags.add_argument(
        "-q", "--quiet", action="store_true",
        default=argparse.SUPPRESS, help=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    paper = sub.add_parser("paper", parents=[logging_flags], help="run the full paper scenario")
    paper.add_argument("--seed", type=int, default=7)
    paper.add_argument("--background", type=int, default=150)
    paper.add_argument("--save", metavar="DIR", help="export datasets + findings")
    paper.add_argument(
        "--profile", metavar="FILE", help="write the per-stage run manifest (JSON)"
    )
    _add_executor_args(paper)
    _add_faults_args(paper)
    _add_cache_args(paper)
    _add_trace_arg(paper)
    _add_obs_args(paper)
    paper.set_defaults(func=_cmd_paper)

    quickstart = sub.add_parser("quickstart", parents=[logging_flags], help="one-hijack demo world")
    quickstart.set_defaults(func=_cmd_quickstart)

    hunt = sub.add_parser("hunt", parents=[logging_flags], help="run the pipeline over an exported study")
    hunt.add_argument("--dir", default=None, help="directory with *.jsonl exports")
    hunt.add_argument(
        "--segments", metavar="DIR", default=None,
        help="run over a memory-mapped segment bundle instead of a JSONL "
        "export (see 'repro-hunt segments write')",
    )
    hunt.add_argument("--out", help="write findings JSONL here")
    _add_executor_args(hunt)
    _add_faults_args(hunt)
    _add_cache_args(hunt)
    _add_trace_arg(hunt)
    _add_obs_args(hunt)
    hunt.set_defaults(func=_cmd_hunt)

    profile = sub.add_parser(
        "profile", parents=[logging_flags], help="per-stage wall time / cardinality profile of a run"
    )
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--background", type=int, default=150)
    profile.add_argument("--out", metavar="FILE", help="write the run manifest (JSON)")
    profile.add_argument(
        "--json",
        metavar="FILE",
        help="write a BENCH_perf.json summary (stage wall times, dataset "
        "bytes and payload bytes)",
    )
    profile.add_argument(
        "--manifest", metavar="FILE", help="render an existing manifest instead"
    )
    profile.add_argument(
        "--memory", action="store_true", default=False,
        help="trace per-stage allocations with tracemalloc (slower; "
        "peak RSS is always recorded)",
    )
    _add_executor_args(profile)
    _add_faults_args(profile)
    _add_cache_args(profile)
    _add_trace_arg(profile)
    _add_obs_args(profile)
    profile.set_defaults(func=_cmd_profile)

    gallery = sub.add_parser("gallery", parents=[logging_flags], help="render the pattern gallery")
    gallery.set_defaults(func=_cmd_gallery)

    monitor = sub.add_parser("monitor", parents=[logging_flags], help="reactive CT monitoring demo")
    monitor.add_argument("--seed", type=int, default=7)
    monitor.set_defaults(func=_cmd_monitor)

    timeline = sub.add_parser(
        "timeline", parents=[logging_flags], help="incident timeline for one identified victim"
    )
    timeline.add_argument("--domain", required=True)
    timeline.add_argument("--seed", type=int, default=7)
    timeline.set_defaults(func=_cmd_timeline)

    explain = sub.add_parser(
        "explain", parents=[logging_flags], help="decision provenance for one identified victim"
    )
    explain.add_argument("domain", help="victim domain to explain")
    explain.add_argument("--seed", type=int, default=7)
    explain.add_argument("--background", type=int, default=150)
    explain.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the finding + provenance trail as JSON ('-' for stdout)",
    )
    explain.set_defaults(func=_cmd_explain)

    sweep = sub.add_parser("sweep", parents=[logging_flags], help="threshold-sensitivity sweeps")
    sweep.add_argument(
        "--parameter", choices=["transient", "visibility", "window", "all"],
        default="all",
    )
    sweep.add_argument("--seed", type=int, default=7)
    sweep.set_defaults(func=_cmd_sweep)

    robustness = sub.add_parser(
        "robustness", parents=[logging_flags], help="randomized-world recall/precision trials"
    )
    robustness.add_argument("--trials", type=int, default=5)
    robustness.add_argument("--victims", type=int, default=6)
    robustness.add_argument("--seed", type=int, default=100)
    robustness.set_defaults(func=_cmd_robustness)

    arena = sub.add_parser(
        "arena", parents=[logging_flags],
        help="sweep every registered detector across the scenario packs",
    )
    arena.add_argument(
        "--packs", metavar="NAMES", default=None,
        help="comma-separated scenario packs (default: all registered)",
    )
    arena.add_argument(
        "--detectors", metavar="NAMES", default=None,
        help="comma-separated detectors (default: all registered)",
    )
    arena.add_argument(
        "--seed", type=int, default=None,
        help="override every pack's canonical seed",
    )
    arena.add_argument(
        "--background", type=int, default=None,
        help="override every pack's background-domain count",
    )
    arena.add_argument(
        "--json", metavar="FILE",
        help="write the BENCH_arena.json leaderboard summary",
    )
    arena.add_argument(
        "--list", action="store_true", default=False,
        help="list registered packs and detectors, then exit",
    )
    _add_faults_args(arena)
    _add_cache_args(arena)
    _add_ledger_args(arena)
    arena.set_defaults(func=_cmd_arena)

    golden = sub.add_parser(
        "golden", parents=[logging_flags], help="check or regenerate the golden regression reports"
    )
    golden.add_argument(
        "--update", action="store_true", help="rewrite the pinned reports"
    )
    golden.add_argument("--dir", default="tests/golden", help="golden file directory")
    golden.add_argument("--background", type=int, default=GOLDEN_BACKGROUND)
    golden.set_defaults(func=_cmd_golden)

    segments = sub.add_parser(
        "segments", parents=[logging_flags],
        help="write, inspect, or verify memory-mapped segment bundles",
    )
    segments_sub = segments.add_subparsers(dest="segments_command", required=True)

    segments_write = segments_sub.add_parser(
        "write", parents=[logging_flags],
        help="lay a study out as a segment directory",
    )
    segments_write.add_argument(
        "--out", metavar="DIR", required=True, help="segment bundle directory"
    )
    segments_write.add_argument(
        "--scale", type=_positive_int, default=None, metavar="N",
        help="write an N-domain synthetic scale world instead of the "
        "paper study",
    )
    segments_write.add_argument(
        "--active", type=_positive_int, default=200,
        help="active (full-funnel) domains in the scale world (default: 200)",
    )
    segments_write.add_argument("--seed", type=int, default=7)
    segments_write.add_argument(
        "--background", type=int, default=150,
        help="background domains of the paper study (ignored with --scale)",
    )
    segments_write.set_defaults(func=_cmd_segments)

    segments_inspect = segments_sub.add_parser(
        "inspect", parents=[logging_flags],
        help="print every segment's verified header summary as JSON",
    )
    segments_inspect.add_argument("dir", help="segment bundle directory")
    segments_inspect.set_defaults(func=_cmd_segments)

    segments_verify = segments_sub.add_parser(
        "verify", parents=[logging_flags],
        help="checksum every segment of a bundle (nonzero exit on corruption)",
    )
    segments_verify.add_argument("dir", help="segment bundle directory")
    segments_verify.set_defaults(func=_cmd_segments)

    epoch = sub.add_parser(
        "epoch", parents=[logging_flags],
        help="apply epoch deltas incrementally over a segment bundle",
    )
    epoch_sub = epoch.add_subparsers(dest="epoch_command", required=True)

    epoch_apply = epoch_sub.add_parser(
        "apply", parents=[logging_flags],
        help="merge one delta onto a bundle and re-run only its dirty set",
    )
    epoch_apply.add_argument("dir", help="segment bundle directory")
    epoch_apply.add_argument(
        "--delta", metavar="FILE", required=True,
        help="repro-delta/1 file to apply (see 'repro-hunt epoch delta')",
    )
    epoch_apply.add_argument("--out", help="write findings JSONL here")
    epoch_apply.add_argument(
        "--profile", metavar="FILE",
        help="write the per-stage run manifest (JSON, with the epoch section)",
    )
    _add_executor_args(epoch_apply)
    _add_faults_args(epoch_apply)
    _add_cache_args(epoch_apply)
    _add_trace_arg(epoch_apply)
    _add_obs_args(epoch_apply)
    epoch_apply.set_defaults(func=_cmd_epoch)

    epoch_status = epoch_sub.add_parser(
        "status", parents=[logging_flags],
        help="show a bundle's applied-epoch history",
    )
    epoch_status.add_argument("dir", help="segment bundle directory")
    epoch_status.set_defaults(func=_cmd_epoch)

    epoch_delta = epoch_sub.add_parser(
        "delta", parents=[logging_flags],
        help="generate a deterministic scale-world epoch delta file",
    )
    epoch_delta.add_argument(
        "--out", metavar="FILE", required=True, help="delta file to write"
    )
    epoch_delta.add_argument(
        "--scale", type=_positive_int, required=True, metavar="N",
        help="population of the scale world the delta targets "
        "(must match the bundle written with 'segments write --scale N')",
    )
    epoch_delta.add_argument(
        "--active", type=_positive_int, default=200,
        help="active domains of the target scale world (default: 200)",
    )
    epoch_delta.add_argument("--seed", type=int, default=0)
    epoch_delta.add_argument(
        "--fraction", type=float, default=0.01,
        help="fraction of active domains the epoch churns (default: 0.01)",
    )
    epoch_delta.add_argument(
        "--epoch", type=_positive_int, default=1,
        help="epoch number (shifts the churn window; default: 1)",
    )
    epoch_delta.set_defaults(func=_cmd_epoch)

    cache = sub.add_parser(
        "cache", parents=[logging_flags], help="inspect or maintain the stage cache"
    )
    cache.add_argument(
        "action", choices=["stats", "clear", "gc"], help="what to do"
    )
    cache.add_argument(
        "--dir", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None,
        help="byte budget for gc (least-recently-used entries beyond it are evicted)",
    )
    cache.set_defaults(func=_cmd_cache)

    runs = sub.add_parser(
        "runs", parents=[logging_flags], help="query the run ledger"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _runs_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = runs_sub.add_parser(name, parents=[logging_flags], help=help_text)
        sp.add_argument(
            "--dir", default=None,
            help="ledger directory (default: $REPRO_LEDGER_DIR, "
            "else .repro-ledger/)",
        )
        sp.set_defaults(func=_cmd_runs)
        return sp

    runs_list = _runs_parser("list", "list recorded runs, oldest first")
    runs_list.add_argument(
        "--kind", choices=["pipeline", "arena"], default=None,
        help="only runs of this kind",
    )
    runs_list.add_argument(
        "--limit", type=_positive_int, default=None,
        help="show only the newest N runs",
    )

    runs_show = _runs_parser("show", "print one run's full record as JSON")
    runs_show.add_argument("run", help="run id (or unique prefix)")

    runs_diff = _runs_parser(
        "diff", "per-stage time/memory/cache deltas between two runs"
    )
    runs_diff.add_argument(
        "runs", nargs="*", metavar="RUN",
        help="two run ids (default: the two newest runs)",
    )

    runs_check = _runs_parser(
        "check",
        "regression sentinel: newest run vs the median of its matching-key "
        "history (nonzero exit on drift)",
    )
    runs_check.add_argument(
        "--run", default=None, help="candidate run id (default: newest)"
    )
    runs_check.add_argument(
        "--window", type=_positive_int, default=5,
        help="baseline window: last N matching-key prior runs (default: 5)",
    )
    runs_check.add_argument(
        "--min-baseline", type=_positive_int, default=None, dest="min_baseline",
        help="comparable prior runs required before the check has teeth "
        "(default: 1; fewer = vacuous pass)",
    )
    runs_check.add_argument(
        "--tolerance-total", type=float, default=None,
        help="fractional ceiling on total wall-time growth (default: 0.5)",
    )
    runs_check.add_argument(
        "--tolerance-stage", type=float, default=None,
        help="fractional ceiling on per-stage wall-time growth (default: 0.75)",
    )
    runs_check.add_argument(
        "--tolerance-memory", type=float, default=None,
        help="fractional ceiling on peak-RSS growth (default: 0.5)",
    )
    runs_check.add_argument(
        "--tolerance-cache", type=float, default=None,
        help="absolute ceiling on cache hit-rate drop (default: 0.25)",
    )
    runs_check.add_argument(
        "--tolerance-f1", type=float, default=None,
        help="absolute ceiling on arena mean-F1 drop (default: 0.05)",
    )
    runs_check.add_argument(
        "--min-stage-seconds", type=float, default=None, dest="min_stage_seconds",
        help="skip stages whose baseline wall time is below this "
        "(default: 0.05s; micro-stage jitter)",
    )

    runs_gc = _runs_parser("gc", "compact the ledger to the newest N runs")
    runs_gc.add_argument(
        "--keep", type=_positive_int, required=True,
        help="how many of the newest runs to keep",
    )

    metrics = sub.add_parser(
        "metrics", parents=[logging_flags],
        help="Prometheus/OpenMetrics text exposition",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    metrics_export = metrics_sub.add_parser(
        "export", parents=[logging_flags],
        help="render a manifest's metrics registry and/or the ledger "
        "summary as OpenMetrics text",
    )
    metrics_export.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="run manifest whose metrics section to export",
    )
    metrics_export.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="ledger whose summary gauges to export "
        "(default: $REPRO_LEDGER_DIR when it exists)",
    )
    metrics_export.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the exposition here instead of stdout",
    )
    metrics_export.add_argument(
        "--check", action="store_true", default=False,
        help="validate the exposition structurally; nonzero exit on errors",
    )
    metrics_export.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.ERROR if args.quiet else getattr(logging, args.log_level.upper())
    # Scope the handler to this invocation: the library stays silent when
    # imported, and repeated in-process calls (tests, REPL) never leave a
    # handler bound to a stale stderr behind.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    root = logging.getLogger()
    previous_level = root.level
    root.addHandler(handler)
    root.setLevel(level)
    try:
        return args.func(args)
    finally:
        root.removeHandler(handler)
        root.setLevel(previous_level)


if __name__ == "__main__":
    raise SystemExit(main())
