"""The epoch engine: incremental re-runs over append-only deltas.

A longitudinal study grows by epochs: each week brings new scan rows,
pDNS aggregate updates, and CT entries, and the analyst wants the
updated report *now* — not after a full re-run over three years of
carried-over evidence.  The engine makes the epoch the unit of work:

1. **Merge** the delta onto the base bundle as an overlay
   (:func:`merge_inputs`).  The scan table extends id-stably and reads
   O(delta) bytes (:func:`repro.segments.overlay.extend_scan_table`:
   delta values intern by bisecting the base pools' stored sorted
   orders, only the touched domains' CSR runs re-merge, the base is
   shared rather than copied, and a stack of epochs flattens onto one
   root), pDNS re-folds the observations, CT gains one delta log; the
   result is equivalent to datasets built cold from the concatenated
   evidence.  The pDNS merge, and a CT merge with entries or
   revocations, still walk their base tables; a channel the delta
   leaves empty is the base table or service itself.
2. **Schedule** the domains whose deployment encoding the delta can
   change (:func:`compute_dirty_set`): those with appended scan rows,
   plus a flag for an in-period scan-calendar change.
3. **Seed** the merged run's ``deployment_maps`` cache entry
   (:func:`run_epoch` via ``_seed_deployment``): clean domains reuse
   their base encodings verbatim — from the base run's stage entry or,
   when the base run was interrupted, from its per-shard products and
   resume manifest — and only dirty domains re-encode, over a table of
   just their rows (:meth:`ScanTable.subset`).  When seeding declines,
   the merged scan table is materialized once in the parent before the
   executor's full sweep, so forked workers share one copy.  The pipeline
   then runs normally and finds step 1 already satisfied; downstream
   stages re-run over the (small) funnel survivors as usual, so a
   delta's pDNS, CT or shared-infrastructure effects reach the report
   without being scheduled.

Reuse is *sound*, not heuristic, because of three invariants the test
wall pins:

* pool-id prefix stability — appending after the base preserves every
  base id, and fault-degraded ``select()`` re-interns an identical
  kept-row prefix identically;
* fault decisions are identity-keyed (:class:`repro.faults.FaultClock`),
  so a base date or row degrades the same way with or without the delta
  appended after it;
* encodings depend only on the domain's own rows and each period's
  scan-calendar dates — so a delta that adds an *in-period* scan date
  flips ``calendar_changed`` and the engine skips seeding entirely
  (every encoding's calendar indices shifted), falling back to the
  executor's ordinary full sweep.

The non-negotiable oracle: ``run_epoch`` produces a report
**byte-identical** to a cold run over the merged dataset, on every
backend, warm or cold cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.pipeline import (
    HijackPipeline,
    PipelineConfig,
    PipelineInputs,
    build_stages,
)
from repro.ct.crtsh import CrtShService
from repro.ct.log import CTLog
from repro.exec.metrics import StageStats
from repro.faults import DataQuality, FaultPlan, apply_faults
from repro.obs.ledger import record_run
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.segments.overlay import extend_scan_table, materialize
from repro.tls.revocation import RevocationEntry, RevocationRegistry

if TYPE_CHECKING:
    from repro.cache.store import StageCache
    from repro.epochs.delta import EpochDelta

#: Sentinel for "this base ordinal's encoding is not available" in the
#: shard-resume reuse path (distinct from an encoding that is empty).
_MISSING = object()


@dataclass(frozen=True)
class DirtySet:
    """What one epoch's delta invalidates in the base deployment encodings.

    ``scan_direct`` holds the registered domains of the delta's scan rows
    (brand-new domains included): a per-domain encoding is a pure
    function of the domain's own rows, the scan calendar and the
    periods, so these are the only domains whose encoding can change.
    ``calendar_changed`` flags an added scan date inside a study period:
    encodings embed per-period scan *indices*, so such a date
    invalidates every encoding at once.
    """

    scan_direct: frozenset[str]
    calendar_changed: bool


def compute_dirty_set(inputs: PipelineInputs, delta: EpochDelta) -> DirtySet:
    """The dirty set of ``delta`` over the base ``inputs``."""
    existing = set(inputs.scan.scan_dates)
    return DirtySet(
        scan_direct=frozenset(base for row in delta.scan_rows for base in row[7]),
        calendar_changed=any(
            day not in existing and any(p.contains(day) for p in inputs.periods)
            for day in delta.scan_dates
        ),
    )


def merge_inputs(inputs: PipelineInputs, delta: EpochDelta) -> PipelineInputs:
    """The merged bundle: ``inputs`` with ``delta`` appended.

    Equivalent — interned ids, pools, CSR indexes, service contents —
    to building every dataset cold from the concatenated evidence; the
    golden epoch suite pins that equivalence at report level and the
    overlay differential pins it at table level.  The base bundle is
    never modified; an empty scan or CT part of the delta reuses the
    base table or service, which is then neither copied nor reloaded.
    """
    table = inputs.scan.table
    scan = ScanDataset.from_table(
        extend_scan_table(table, delta.scan_rows) if delta.scan_rows else table,
        tuple(sorted(set(inputs.scan.scan_dates) | set(delta.scan_dates))),
        known_missing_dates=(
            inputs.scan.known_missing_dates | frozenset(delta.known_missing)
        ),
    )

    # pDNS re-folds: aggregates are (first, last, count) triples, so the
    # merged database is the base rows re-inserted plus the delta's
    # observations folded in — exactly what a sensor network that saw
    # both streams would have aggregated.
    pdns = PassiveDNSDatabase()
    for record in inputs.pdns.all_records():
        pdns._insert_row(
            (record.rrname, record.rtype, record.rdata),
            record.first_seen,
            record.last_seen,
            record.count,
        )
    for rrname, rtype, rdata, day in delta.pdns_observations:
        pdns.add_observation(rrname, rtype, rdata, day)

    return PipelineInputs(
        scan=scan,
        pdns=pdns,
        crtsh=_merge_crtsh(inputs.crtsh, delta),
        as2org=inputs.as2org,
        periods=inputs.periods,
        routing=inputs.routing,
        geo=inputs.geo,
    )


def _merge_crtsh(base: CrtShService, delta: EpochDelta) -> CrtShService:
    """The base CT view plus the delta's entries and revocations.

    New entries land in one extra log (CT queries are content-sorted,
    so the split-log layout answers identically to a single merged
    log); revocations install into a copied registry so the base
    service keeps answering with its pre-epoch knowledge.
    """
    if not delta.ct_entries and not delta.revocations:
        return base
    logs = list(base._logs)
    if delta.ct_entries:
        log = CTLog(f"epoch-{delta.epoch}-delta")
        for cert, day in delta.ct_entries:
            log.submit(cert, day)
        logs.append(log)
    registry = RevocationRegistry()
    registry._mechanism = dict(base._revocations._mechanism)
    registry._entries = dict(base._revocations._entries)
    for fingerprint, on, reason in delta.revocations:
        registry._entries[fingerprint] = RevocationEntry(fingerprint, on, reason)
    return CrtShService(
        logs,
        registry,
        base._asof,
        publication_delay_days=base._publication_delay.days,
        publication_horizon=base._publication_horizon,
    )


def run_epoch(
    inputs: PipelineInputs,
    delta: EpochDelta,
    *,
    config: PipelineConfig | None = None,
    faults: FaultPlan | str | None = None,
    backend=None,
    cache: StageCache | None = None,
    events=None,
    ledger=None,
    label: str = "epoch",
):
    """Apply ``delta`` to ``inputs`` and run the funnel incrementally.

    Returns ``(report, metrics, dirty)``.  The report is required to be
    byte-identical to a cold :meth:`HijackPipeline.profile` over
    :func:`merge_inputs`'s bundle.  With a cache, the merged run's
    ``deployment_maps`` entry is pre-seeded from the base run's products
    (stage entry or per-shard resume products), so the executor's sweep
    over the full domain population becomes a cache hit and only the
    dirty domains were re-encoded.  Without a cache the run is simply a
    cold run over the merged bundle.

    The manifest gains an ``epoch`` section, and the run's
    ``metrics["counters"]`` gain ``epoch.domains_dirty`` /
    ``epoch.domains_reused``.  The two partition ``domains``, the
    population the deployment stage sweeps after fault degradation: a
    domain is dirty when this epoch recomputes its deployment encoding
    and reused when it does not.  A ``ledger`` receives the run's record
    once both exist, so the counters reach the ledger and the
    OpenMetrics exposition like any other counter.
    """
    config = config or PipelineConfig()
    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.from_spec(faults)
    merged = merge_inputs(inputs, delta)
    dirty = compute_dirty_set(inputs, delta)
    degraded = apply_faults(merged, plan, DataQuality())
    n_domains = len(degraded.scan.domains())
    # Without a cache the executor's sweep recomputes every domain.
    seeded, reused, recomputed, reason = False, 0, n_domains, None
    if cache is not None:
        seeded, reused, recomputed, reason = _seed_deployment(
            inputs, degraded, dirty, plan, config, cache
        )
    if not seeded and recomputed:
        # The executor sweeps the table the faults leave (the merged
        # overlay itself under a plan that spares scans): copy it once
        # here, not once per forked worker.
        materialize(degraded.scan.table)

    pipeline = HijackPipeline(merged, config=config, faults=plan)
    report, metrics = pipeline.profile(backend, cache=cache, events=events)
    metrics.epoch = {
        "epoch": delta.epoch,
        "label": delta.label,
        "delta": delta.counts(),
        "domains": n_domains,
        "domains_dirty": recomputed,
        "domains_reused": reused,
        "calendar_changed": dirty.calendar_changed,
        "seeded": seeded,
        "reuse_disabled": reason,
    }
    counters = metrics.metrics["counters"]
    counters["epoch.domains_dirty"] = recomputed
    counters["epoch.domains_reused"] = reused
    if ledger is not None:
        record_run(ledger, lambda: pipeline.ledger_record(metrics, report, label))
    return report, metrics, dirty


def _seed_deployment(
    base_inputs: PipelineInputs,
    degraded_merged: PipelineInputs,
    dirty: DirtySet,
    plan: FaultPlan,
    config: PipelineConfig,
    cache: StageCache,
) -> tuple[bool, int, int, str | None]:
    """Pre-store the merged run's ``deployment_maps`` entry.

    Returns ``(seeded, domains_reused, domains_recomputed,
    reuse_disabled_reason)``; reused plus recomputed is the swept
    population on every path.  An entry already banked for the merged
    run reuses every domain.  When seeding is unsound (an in-period
    calendar change) or impossible (no base products banked), it
    declines and the executor's ordinary full sweep recomputes
    everything — slower, never wrong.
    """
    from repro.cache.fingerprint import derive_run_key, stage_fingerprint

    stage = build_stages()[0]
    chain = [(stage.name, stage.cache_version, stage.config_deps)]
    merged_domains = degraded_merged.scan.domains()
    merged_fp = stage_fingerprint(
        derive_run_key(degraded_merged, plan, config), chain
    )
    if cache.get(merged_fp) is not None:
        return False, len(merged_domains), 0, "already-cached"
    if dirty.calendar_changed:
        # Every encoding embeds per-period scan-calendar indices; an
        # in-period date shifts them all, so nothing is reusable.
        return False, 0, len(merged_domains), "calendar-changed"

    degraded_base = apply_faults(base_inputs, plan, DataQuality())
    base_fp = stage_fingerprint(
        derive_run_key(degraded_base, plan, config), chain
    )
    from repro.core.deployment import encode_domain_maps

    merged_scan = degraded_merged.scan

    def encode(names) -> dict[str, Any]:
        # Over a table of just these domains' merged rows: an encoding
        # reads only its domain's rows and the scan calendar, so it is
        # the same there, and nothing population-sized is read.
        names = list(names)
        scan = ScanDataset.from_table(
            merged_scan.table.subset(names),
            merged_scan.scan_dates,
            merged_scan.known_missing_dates,
        )
        return {
            name: encode_domain_maps(scan, name, degraded_merged.periods, config.max_gap_scans)
            for name in names
        }

    entry = cache.get(base_fp)
    if entry is not None:
        # The base entry lists every non-empty encoding by name (a
        # domain it omits encoded empty).  Only the dirty domains in the
        # merged population re-encode, so the splice touches the entry
        # and the dirty set, never the population.
        redo = encode(
            name for name in dirty.scan_direct
            if merged_scan.table.domain_index(name) is not None
        )
        spliced = sorted(
            [(name, enc) for name, enc in entry.products["encoded_maps"] if name not in redo]
            + [(name, enc) for name, enc in redo.items() if enc]
        )
        recomputed = len(redo)
        reused = len(merged_domains) - recomputed
    else:
        seeded = _resume_splice(
            cache, base_fp, degraded_base.scan.domains(), merged_domains,
            dirty.scan_direct, encode,
        )
        if seeded is None:
            return False, 0, len(merged_domains), "no-base-products"
        spliced, reused, recomputed = seeded

    cache.put(
        merged_fp,
        stage.name,
        StageStats(
            n_in=len(merged_domains),
            n_out=len(spliced),
            detail={
                "domains_mapped": len(spliced),
                "epoch_domains_reused": reused,
                "epoch_domains_recomputed": recomputed,
            },
        ),
        {"encoded_maps": spliced},
    )
    return True, reused, recomputed, None


def _resume_splice(cache, base_fp, base_domains, merged_domains, scan_direct, encode):
    """``(spliced, reused, recomputed)`` from the per-shard products an
    interrupted base run banked via its resume manifest, or None.

    Shards that never completed leave their ordinals :data:`_MISSING`,
    so this walks the merged population: a single forward pointer
    aligns it with the (sorted) base population, and every domain that
    is dirty, new or uncovered re-encodes, all in one ``encode`` call.
    """
    base_encoded = _resume_products(cache, base_fp, len(base_domains))
    if base_encoded is None:
        return None
    n_base = len(base_domains)
    aligned: list[tuple[str, Any]] = []
    j = 0
    for name in merged_domains:
        while j < n_base and base_domains[j] < name:
            j += 1
        encoded = _MISSING
        if j < n_base and base_domains[j] == name and name not in scan_direct:
            encoded = base_encoded[j]
        aligned.append((name, encoded))
    redo = encode([name for name, encoded in aligned if encoded is _MISSING])
    spliced: list[tuple[str, Any]] = []
    for name, encoded in aligned:
        if encoded is _MISSING:
            encoded = redo[name]
        if encoded:
            spliced.append((name, encoded))
    return spliced, len(aligned) - len(redo), len(redo)


def _resume_products(cache: StageCache, base_fp: str, n_base: int) -> list | None:
    """The per-shard products an interrupted base run banked via its
    resume manifest, aligned to base ordinals; uncovered ordinals stay
    :data:`_MISSING`."""
    from repro.cache.resume import ResumeManifest

    manifest = ResumeManifest(cache.root)
    data = manifest.load(base_fp)
    if not data or data.get("kernel") != "deployment":
        return None
    if int(data.get("n_items", -1)) != n_base:
        return None
    completed = manifest.completed(base_fp)
    if not completed:
        return None
    n_shards = int(data.get("n_shards", 0))
    if n_shards <= 0:
        return None
    encoded = [_MISSING] * n_base
    for ordinal, shard_key in completed.items():
        shard = cache.get(shard_key)
        if shard is None:
            continue
        lo = ordinal * n_base // n_shards
        hi = (ordinal + 1) * n_base // n_shards
        results = shard.products["results"]
        if len(results) != hi - lo:
            continue
        encoded[lo:hi] = results
    return encoded


__all__ = ["DirtySet", "compute_dirty_set", "merge_inputs", "run_epoch"]
