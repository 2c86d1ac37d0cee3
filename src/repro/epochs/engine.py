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
3. **Seed** the merged run's per-domain stage entries,
   ``deployment_maps`` and ``classify`` (:func:`run_epoch` via
   ``_seed_stages``): clean domains reuse their base encodings and
   classification codes verbatim — from the base run's stage entries
   or, for the encodings of an interrupted base run, from its per-shard
   products and resume manifest — and only dirty domains re-encode,
   over a table of just their rows (:meth:`ScanTable.subset`), and
   re-classify.  One splice builds both entries.  Stage fingerprints
   fold only the input channels a stage's chain reads
   (``Stage.input_deps``), so a delta without scan evidence needs no
   seeding: the base run's scan-side entries are the merged run's, and
   ``_seed_stages`` finds the deployment entry banked and decodes
   nothing.  When seeding declines, the merged scan table is
   materialized once in the parent before the executor's full sweep, so
   forked workers share one copy.  The pipeline then runs normally and
   finds steps 1 and 2 already satisfied; downstream stages re-run over
   the (small) funnel survivors as usual wherever their channels
   changed, so a delta's pDNS, CT or shared-infrastructure effects reach
   the report without being scheduled.

Reuse is *sound*, not heuristic, because of three invariants the test
wall pins:

* pool-id prefix stability — appending after the base preserves every
  base id, and fault-degraded ``select()`` re-interns an identical
  kept-row prefix identically;
* fault decisions are identity-keyed (:class:`repro.faults.FaultClock`),
  so a base date or row degrades the same way with or without the delta
  appended after it;
* encodings, and the classifications computed from them, depend only
  on the domain's own rows and each period's scan-calendar dates — so
  a delta that adds an *in-period* scan date
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

from repro.core.patterns import classify_domain_encoded, scan_date_ordinals
from repro.core.pipeline import (
    HijackPipeline,
    PipelineConfig,
    PipelineInputs,
    build_stages,
    classify_stats,
    deployment_stats,
)
from repro.ct.crtsh import CrtShService
from repro.ct.log import CTLog
from repro.exec.stage import fingerprint_chain
from repro.faults import DataQuality, FaultPlan, apply_faults
from repro.obs.ledger import record_run
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.segments.overlay import extend_scan_table, materialize
from repro.tls.revocation import RevocationEntry, RevocationRegistry

if TYPE_CHECKING:
    from repro.cache.store import StageCache
    from repro.epochs.delta import EpochDelta

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
    :func:`merge_inputs`'s bundle.  With a cache, a delta that carries
    scan evidence has the merged run's ``deployment_maps`` and
    ``classify`` entries pre-seeded from the base run's products, so the
    executor finds both satisfied and only the dirty domains were
    re-encoded and re-classified.  A delta that carries none (pDNS or
    CT only) keys the scan-side stages — those two and the shortlist —
    where the base run banked them, so the executor reads them as they
    are and re-runs only inspection, the pivot and assembly.  Without a
    cache the run is simply a cold run over the merged bundle.

    The manifest gains an ``epoch`` section, and the run's
    ``metrics["counters"]`` gain ``epoch.domains_dirty`` /
    ``epoch.domains_reused`` and ``classify.domains_recomputed`` /
    ``classify.domains_reused``.  Each pair partitions ``domains``, the
    population the deployment stage sweeps after fault degradation, by
    whether this epoch recomputed the domain's encoding (classification)
    — read off what the executor served from the cache, so a stage it
    re-ran counts every domain recomputed.
    A ``ledger`` receives the run's record once both exist, so the
    counters reach the ledger and the OpenMetrics exposition.
    """
    config = config or PipelineConfig()
    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.from_spec(faults)
    merged = merge_inputs(inputs, delta)
    dirty = compute_dirty_set(inputs, delta)
    degraded = apply_faults(merged, plan, DataQuality())
    n_domains = len(degraded.scan.domains())
    seeding = _Seeding()
    if cache is not None:
        seeding = _seed_stages(inputs, degraded, dirty, plan, config, cache)
    if seeding.reason != "already-cached" and not seeding.seeded:
        # The executor sweeps the table the faults leave (the merged
        # overlay itself under a plan that spares scans): copy it once
        # here, not once per forked worker.
        materialize(degraded.scan.table)

    pipeline = HijackPipeline(merged, config=config, faults=plan)
    report, metrics = pipeline.profile(backend, cache=cache, events=events)
    # The counters report what the executor served: an entry it read
    # reuses the domains seeding counted into it (every domain, for an
    # entry seeding did not store), and a stage it ran — no entry, or
    # one it could not read — recomputed every domain.
    cached = {stage.name: stage.cached for stage in metrics.stages}

    def reused_by(stage: str, stored: int | None) -> int:
        if not cached[stage]:
            return 0
        return n_domains if stored is None else stored

    reused = reused_by("deployment_maps", seeding.deployment_reused)
    classify_reused = reused_by("classify", seeding.classify_reused)
    metrics.epoch = {
        "epoch": delta.epoch,
        "label": delta.label,
        "delta": delta.counts(),
        "domains": n_domains,
        "domains_dirty": n_domains - reused,
        "domains_reused": reused,
        "calendar_changed": dirty.calendar_changed,
        "seeded": seeding.seeded,
        "reuse_disabled": seeding.reason,
    }
    counters = metrics.metrics["counters"]
    counters["epoch.domains_dirty"] = n_domains - reused
    counters["epoch.domains_reused"] = reused
    counters["classify.domains_recomputed"] = n_domains - classify_reused
    counters["classify.domains_reused"] = classify_reused
    if ledger is not None:
        record_run(ledger, lambda: pipeline.ledger_record(metrics, report, label))
    return report, metrics, dirty


@dataclass(frozen=True)
class _Seeding:
    """What ``_seed_stages`` did before the executor ran.

    ``reason`` says why it stored nothing (``already-cached``,
    ``calendar-changed``, ``no-base-products``).  ``deployment_reused``
    and ``classify_reused`` count the domains whose encoding and
    classification the entry it stored reused from the base run; None
    where it stored no entry.
    """

    seeded: bool = False
    reason: str | None = None
    deployment_reused: int | None = None
    classify_reused: int | None = None


def _seed_stages(
    base_inputs: PipelineInputs,
    degraded_merged: PipelineInputs,
    dirty: DirtySet,
    plan: FaultPlan,
    config: PipelineConfig,
    cache: StageCache,
) -> _Seeding:
    """Pre-store the merged run's entries of the per-domain stages,
    ``deployment_maps`` and ``classify``.

    An entry already banked for the merged run is left for the executor
    to read, undecoded here.  These stages read only the scan and the
    periods, so a delta that carries no scan evidence (pDNS or CT only)
    keys them where the base run banked them.  When seeding is unsound
    (an in-period calendar change) or impossible (no base products
    banked), it declines and the executor's ordinary full sweep
    recomputes everything — slower, never wrong.  Classify is seeded too
    where the base run banked a classify entry, with a cold run's stats.
    """
    from repro.cache.fingerprint import derive_run_key, stage_fingerprint

    chain = fingerprint_chain(build_stages()[:2])
    merged_key = derive_run_key(degraded_merged, plan, config)
    merged_fps = [stage_fingerprint(merged_key, chain[:k]) for k in (1, 2)]
    if cache.contains(merged_fps[0]):
        return _Seeding(reason="already-cached")
    if dirty.calendar_changed:
        # Every encoding embeds per-period scan-calendar indices; an
        # in-period date shifts them all, so nothing is reusable.
        return _Seeding(reason="calendar-changed")

    degraded_base = apply_faults(base_inputs, plan, DataQuality())
    base_key = derive_run_key(degraded_base, plan, config)
    base_fps = [stage_fingerprint(base_key, chain[:k]) for k in (1, 2)]
    # A delta without scan evidence keys the base entries at the merged
    # addresses, which hold no deployment entry (just checked) and
    # whose classify entry, if any, the executor reads itself.
    shared = base_fps == merged_fps
    from repro.core.deployment import domain_map_encoder

    merged_scan = degraded_merged.scan
    n_domains = len(merged_scan.domains())

    def encode(names) -> dict[str, Any]:
        # One encoder over a table of just these domains' merged rows: an
        # encoding reads only its domain's rows and the scan calendar, so
        # it is the same there, and nothing population-sized is read.
        # Binding the encoder filters the calendar per period, which a
        # delta with no scan rows need not pay.
        if not names:
            return {}
        scan = ScanDataset.from_table(
            merged_scan.table.subset(names),
            merged_scan.scan_dates,
            merged_scan.known_missing_dates,
        )
        encoder = domain_map_encoder(scan, degraded_merged.periods, config.max_gap_scans)
        return {name: encoder(index) for index, name in enumerate(scan.domains())}

    entry = None if shared else cache.get(base_fps[0])
    if entry is not None:
        base_maps, uncovered = entry.products["encoded_maps"], []
    else:
        resumed = _resume_products(cache, base_fps[0], degraded_base.scan.domains())
        if resumed is None:
            return _Seeding(reason="no-base-products")
        base_maps, uncovered = resumed
    # The base lists every non-empty encoding by name (a domain it omits
    # encoded empty).  Only the dirty domains in the merged population,
    # which include every domain the base lacks, and any the base left
    # uncovered re-encode, so the splice touches the base products and
    # the dirty set, never the population.
    redo = encode(
        {*uncovered}
        | {name for name in dirty.scan_direct if merged_scan.table.domain_index(name) is not None}
    )
    maps = _splice(base_maps, redo)
    recomputed = len(redo)
    reused = n_domains - recomputed
    stats = deployment_stats(n_domains, maps)
    stats.detail.update(epoch_domains_reused=reused, epoch_domains_recomputed=recomputed)
    cache.put(merged_fps[0], chain[0][0], stats, {"encoded_maps": maps})

    # Classification reads only the domain's encoding and the periods'
    # scan calendar, so a clean domain's base codes stand, and a dirty
    # one re-classifies from the encoding just recomputed.
    entry = None if shared else cache.get(base_fps[1])
    if entry is None:
        return _Seeding(seeded=True, deployment_reused=reused)
    date_ords = scan_date_ordinals(merged_scan, degraded_merged.periods)
    codes = _splice(
        entry.products["encoded"],
        {
            name: classify_domain_encoded(encoded, date_ords, config.patterns)
            for name, encoded in redo.items()
        },
    )
    cache.put(merged_fps[1], chain[1][0], classify_stats(codes), {"encoded": codes})
    return _Seeding(seeded=True, deployment_reused=reused, classify_reused=reused)


def _splice(base: list, redo: dict[str, Any]) -> list:
    """A per-domain stage's product for the merged run: ``base``'s
    ``(domain, product)`` pairs, every domain in ``redo`` replaced by its
    recomputed product (dropped when that came out empty), in domain
    order."""
    return sorted(
        [(name, product) for name, product in base if name not in redo]
        + [(name, product) for name, product in redo.items() if product]
    )


def _resume_products(cache: StageCache, base_fp: str, base_domains) -> tuple | None:
    """``(pairs, uncovered)`` from the per-shard products an interrupted
    base run banked via its resume manifest, or None: the ``(domain,
    encoding)`` pairs of the banked shards' non-empty encodings, and the
    domains of the shards it never banked."""
    from repro.cache.resume import ResumeManifest

    manifest = ResumeManifest(cache.root)
    data = manifest.load(base_fp)
    n_base = len(base_domains)
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
    pairs: list[tuple[str, Any]] = []
    uncovered: list[str] = []
    for ordinal in range(n_shards):
        lo = ordinal * n_base // n_shards
        hi = (ordinal + 1) * n_base // n_shards
        shard = cache.get(completed[ordinal]) if ordinal in completed else None
        results = shard.products["results"] if shard is not None else ()
        if len(results) != hi - lo:
            uncovered.extend(base_domains[lo:hi])
            continue
        pairs.extend((base_domains[lo + k], enc) for k, enc in enumerate(results) if enc)
    return pairs, uncovered


__all__ = ["DirtySet", "compute_dirty_set", "merge_inputs", "run_epoch"]
