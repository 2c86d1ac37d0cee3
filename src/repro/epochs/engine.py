"""The epoch engine: incremental re-runs over append-only deltas.

A longitudinal study grows by epochs: each week brings new scan rows,
pDNS aggregate updates, and CT entries, and the analyst wants the
updated report *now* — not after a full re-run over three years of
carried-over evidence.  The engine makes the epoch the unit of work:

1. **Merge** the delta onto the base bundle as an overlay
   (:func:`merge_inputs`).  The scan table extends id-stably
   (:func:`repro.segments.overlay.extend_scan_table`), pDNS re-folds the
   observations, CT gains one delta log; the result is equivalent to
   datasets built cold from the concatenated evidence.
2. **Schedule** exactly the domains the delta can affect
   (:func:`repro.epochs.dirty.compute_dirty_set`).
3. **Seed** the merged run's ``deployment_maps`` cache entry
   (:func:`run_epoch` via ``_seed_deployment``): clean domains reuse
   their base encodings verbatim — from the base run's stage entry or,
   when the base run was interrupted, from its per-shard products and
   resume manifest — and only dirty domains re-encode.  The pipeline
   then runs normally and finds step 1 already satisfied; downstream
   stages re-run over the (small) funnel survivors as usual.

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

from typing import TYPE_CHECKING, Any

from repro.core.pipeline import (
    HijackPipeline,
    PipelineConfig,
    PipelineInputs,
    build_stages,
)
from repro.ct.crtsh import CrtShService
from repro.ct.log import CTLog
from repro.epochs.dirty import DirtySet, compute_dirty_set
from repro.exec.metrics import StageStats
from repro.faults import DataQuality, FaultPlan, apply_faults
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.segments.overlay import extend_scan_table
from repro.tls.revocation import RevocationEntry, RevocationRegistry

if TYPE_CHECKING:
    from repro.cache.store import StageCache
    from repro.epochs.delta import EpochDelta

#: Sentinel for "this base ordinal's encoding is not available" in the
#: shard-resume reuse path (distinct from an encoding that is empty).
_MISSING = object()


def merge_inputs(inputs: PipelineInputs, delta: EpochDelta) -> PipelineInputs:
    """The merged bundle: ``inputs`` with ``delta`` appended.

    Equivalent — interned ids, pools, CSR indexes, service contents —
    to building every dataset cold from the concatenated evidence; the
    golden epoch suite pins that equivalence at report level and the
    overlay differential pins it at table level.  The base bundle is
    never modified.
    """
    scan = ScanDataset.from_table(
        extend_scan_table(inputs.scan.table, delta.scan_rows),
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
    tracer=None,
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

    The manifest gains an ``epoch`` section, and the run's metrics gain
    ``epoch.domains_dirty`` / ``epoch.domains_reused`` counters (they
    flow into the ledger record and the OpenMetrics exposition like any
    other counter).  The two partition ``domains``, the population the
    deployment stage sweeps after fault degradation: a domain is dirty
    when this epoch recomputes its deployment encoding and reused when
    it does not.  The dirty set's rings are reported under ``dirty``.
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
    stats: dict[str, Any] = {
        "epoch": delta.epoch,
        "label": delta.label,
        "delta": delta.counts(),
        "domains": n_domains,
        "domains_dirty": recomputed,
        "domains_reused": reused,
        "dirty": dirty.counts(),
        "calendar_changed": dirty.calendar_changed,
        "seeded": seeded,
        "reuse_disabled": reason,
    }

    pipeline = HijackPipeline(merged, config=config, faults=plan)
    report, metrics = pipeline.profile(
        backend,
        tracer=tracer,
        cache=cache,
        events=events,
        ledger=ledger,
        label=label,
    )
    metrics.epoch = dict(stats)
    counters = dict(metrics.metrics or {})
    counters["epoch.domains_dirty"] = stats["domains_dirty"]
    counters["epoch.domains_reused"] = stats["domains_reused"]
    metrics.metrics = counters
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
    base_domains = degraded_base.scan.domains()
    base_encoded = _base_products(
        cache, base_fp, len(base_domains),
        degraded_base.scan.table.domain_index,
    )
    if base_encoded is None:
        return False, 0, len(merged_domains), "no-base-products"

    from repro.core.deployment import encode_domain_maps

    scan_direct = dirty.scan_direct
    periods = degraded_merged.periods
    max_gap = config.max_gap_scans
    n_base = len(base_domains)
    spliced: list[tuple[str, Any]] = []
    reused = 0
    recomputed = 0
    if len(merged_domains) == n_base:
        # No new domains this epoch: merged domains are a sorted
        # superset of base domains, so equal counts mean identical
        # ordinals.  Reuse becomes one pass over the base products that
        # only touches domain *names* for the dirty set and the
        # (funnel-sized) non-empty encodings — no per-domain walk.
        dirty_ordinals: dict[int, str] = {}
        for name in scan_direct:
            ordinal = degraded_merged.scan.table.domain_index(name)
            if ordinal is not None:
                dirty_ordinals[ordinal] = name
        for ordinal, encoded in enumerate(base_encoded):
            name = dirty_ordinals.get(ordinal)
            if name is None and encoded is not _MISSING:
                reused += 1
                if encoded:
                    spliced.append((merged_domains[ordinal], encoded))
                continue
            if name is None:
                name = merged_domains[ordinal]
            encoded = encode_domain_maps(
                degraded_merged.scan, name, periods, max_gap
            )
            recomputed += 1
            if encoded:
                spliced.append((name, encoded))
    else:
        j = 0
        for name in merged_domains:
            # A single forward pointer aligns the two sorted domain
            # sequences without a lookup table.
            while j < n_base and base_domains[j] < name:
                j += 1
            encoded = _MISSING
            if (
                j < n_base
                and base_domains[j] == name
                and name not in scan_direct
            ):
                encoded = base_encoded[j]
            if encoded is _MISSING:
                encoded = encode_domain_maps(
                    degraded_merged.scan, name, periods, max_gap
                )
                recomputed += 1
            else:
                reused += 1
            if encoded:
                spliced.append((name, encoded))

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


def _base_products(
    cache: StageCache, base_fp: str, n_base: int, domain_index
) -> list | None:
    """The base run's per-domain encodings, aligned to base ordinals.

    Prefers the stage-level entry (every domain covered; the entry only
    lists non-empty encodings, so absence means empty — and the listed
    population is funnel-sized, so the name->ordinal scatter touches
    few pooled strings).  Falls back to the per-shard products an
    interrupted base run banked via its resume manifest — uncovered
    ordinals stay :data:`_MISSING` and are recomputed by the caller.
    """
    entry = cache.get(base_fp)
    if entry is not None:
        encoded: list = [()] * n_base
        for name, enc in entry.products["encoded_maps"]:
            ordinal = domain_index(name)
            if ordinal is None:
                return None  # entry from a different base population
            encoded[ordinal] = enc
        return encoded
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


__all__ = ["merge_inputs", "run_epoch"]
