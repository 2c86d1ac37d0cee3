"""The five-step pipeline orchestrator (Figure 1).

The funnel — deployment maps over every six-month period, pattern
classification, shortlisting, pDNS + CT inspection with the T1*
shared-infrastructure second pass, and the pivot on confirmed attacker
infrastructure — is expressed as a list of :class:`repro.exec.Stage`
objects over a shared :class:`HuntContext`, driven by a
:class:`repro.exec.PipelineExecutor`.  Steps 1, 2, and 4 fan out through
the executor's backend (serially by default; sharded across worker
processes by domain hash with :class:`repro.exec.ProcessPoolBackend`),
and every run can be profiled into a per-stage JSON manifest.

:class:`HijackPipeline` remains the front door: construct it from a
:class:`PipelineInputs` bundle (or the :meth:`HijackPipeline.from_study`
/ :meth:`HijackPipeline.from_directory` factories) and call
:meth:`HijackPipeline.run`.  Serial and parallel backends are required
to produce identical :class:`PipelineReport`\\ s.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cache.store import StageCache
    from repro.obs.events import EventSink
    from repro.obs.ledger import RunLedger

logger = logging.getLogger(__name__)

from repro.core.deployment import decode_domain_maps
from repro.core.inspection import (
    InspectionConfig,
    InspectionResult,
    Inspector,
    decode_inspection,
    encode_inspection,
)
from repro.core.patterns import Classification, PatternConfig, decode_classification
from repro.core.pivot import PivotAnalyzer, PivotFinding
from repro.core.report import DomainFinding, FunnelStats
from repro.core.shortlist import (
    PruneDecision,
    ShortlistConfig,
    ShortlistEntry,
    Shortlister,
    decode_shortlist,
    encode_shortlist,
)
from repro.core.types import DetectionType, PatternKind, Verdict
from repro.ct.crtsh import CrtShService
from repro.exec.backends import ExecutionBackend, SerialBackend
from repro.exec.executor import PipelineExecutor
from repro.exec.metrics import RunMetrics, StageStats
from repro.exec.stage import Stage, StageContext
from repro.faults import DataQuality, FaultPlan, FaultSpec, apply_faults
from repro.io.reports import finding_from_row, finding_to_row
from repro.ipintel.as2org import AS2Org
from repro.ipintel.geo import GeoDB
from repro.ipintel.pfx2as import RoutingTable
from repro.net.timeline import Period
from repro.obs.metrics import get_registry
from repro.obs.provenance import trail_from_inspection, trail_from_pivot
from repro.obs.trace import Tracer
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    patterns: PatternConfig = field(default_factory=PatternConfig)
    shortlist: ShortlistConfig = field(default_factory=ShortlistConfig)
    inspection: InspectionConfig = field(default_factory=InspectionConfig)
    max_gap_scans: int = 6
    enable_pivot: bool = True
    enable_t1_star: bool = True


@dataclass(frozen=True)
class PipelineInputs:
    """Everything the pipeline consumes, bundled once.

    Replaces the old eight-argument :class:`HijackPipeline` constructor:
    one immutable value carries the analyst's datasets, the intelligence
    tables, and the study periods, and is what the process-pool backend
    ships to its workers.
    """

    scan: ScanDataset
    pdns: PassiveDNSDatabase
    crtsh: CrtShService
    as2org: AS2Org
    periods: tuple[Period, ...]
    routing: RoutingTable | None = None
    geo: GeoDB | None = None

    @classmethod
    def from_study(cls, study) -> PipelineInputs:
        """Bundle the datasets of a simulated :class:`StudyDatasets`."""
        return cls(
            scan=study.scan,
            pdns=study.pdns,
            crtsh=study.crtsh,
            as2org=study.as2org,
            periods=study.periods,
            routing=study.routing,
            geo=study.geo,
        )

    @classmethod
    def from_directory(cls, path: str | Path) -> PipelineInputs:
        """Load an exported study (``repro-hunt paper --save DIR``).

        Expects ``scan.jsonl`` / ``pdns.jsonl`` / ``ct.jsonl`` /
        ``as2org.jsonl``; periods are derived from the scan calendar.
        Routing and geolocation tables are not part of the export, so
        attacker ASN/CC fall back to the scan annotations.
        """
        from repro.io import load_as2org, load_ct, load_pdns, load_scan_dataset
        from repro.net.timeline import study_periods

        directory = Path(path)
        required = ["scan.jsonl", "pdns.jsonl", "ct.jsonl", "as2org.jsonl"]
        missing = [name for name in required if not (directory / name).exists()]
        if missing:
            raise FileNotFoundError(
                f"{directory}/ is missing {', '.join(missing)}"
            )
        scan = load_scan_dataset(directory / "scan.jsonl")
        pdns = load_pdns(directory / "pdns.jsonl")
        _log, _revocations, crtsh = load_ct(directory / "ct.jsonl")
        as2org = load_as2org(directory / "as2org.jsonl")
        periods = study_periods(scan.scan_dates[0], scan.scan_dates[-1])
        return cls(scan=scan, pdns=pdns, crtsh=crtsh, as2org=as2org, periods=periods)


@dataclass
class PipelineReport:
    """Everything the run produced."""

    funnel: FunnelStats
    findings: list[DomainFinding]
    classifications: dict[tuple[str, int], Classification]
    shortlist: list[ShortlistEntry]
    inspections: list[InspectionResult]
    pivots: list[PivotFinding]
    attacker_ips: frozenset[str] = frozenset()
    attacker_ns: frozenset[str] = frozenset()

    def _finding_index(self) -> dict[str, DomainFinding]:
        # Findings are immutable after the run assembles them, so the
        # domain index is built once, lazily, and cached off-field (it
        # does not participate in dataclass equality).
        index = self.__dict__.get("_index_cache")
        if index is None:
            index = {}
            for finding in self.findings:
                index.setdefault(finding.domain, finding)
            self.__dict__["_index_cache"] = index
        return index

    def finding_for(self, domain: str) -> DomainFinding | None:
        return self._finding_index().get(domain)

    def by_verdict(self, verdict: Verdict) -> list[DomainFinding]:
        """Findings with the given verdict, in report order."""
        return [f for f in self.findings if f.verdict is verdict]

    def hijacked(self) -> list[DomainFinding]:
        return self.by_verdict(Verdict.HIJACKED)

    def targeted(self) -> list[DomainFinding]:
        return self.by_verdict(Verdict.TARGETED)


@dataclass
class HuntContext(StageContext):
    """The funnel's products as they accumulate stage by stage."""

    inputs: PipelineInputs
    config: PipelineConfig
    maps: dict[tuple[str, int], object] = field(default_factory=dict)
    maps_encoded: list = field(default_factory=list)
    classifications: dict[tuple[str, int], Classification] = field(default_factory=dict)
    classifications_encoded: list = field(default_factory=list)
    shortlist: list[ShortlistEntry] = field(default_factory=list)
    decisions: list[PruneDecision] = field(default_factory=list)
    inspections: list[InspectionResult] = field(default_factory=list)
    confirmed_ips: set[str] = field(default_factory=set)
    confirmed_ns: set[str] = field(default_factory=set)
    pivots: list[PivotFinding] = field(default_factory=list)
    findings: list[DomainFinding] = field(default_factory=list)
    report: PipelineReport | None = None


# -- finding assembly ----------------------------------------------------------


class _FindingBuilder:
    """Turns inspection / pivot results into per-domain findings."""

    def __init__(
        self,
        inputs: PipelineInputs,
        classifications: dict[tuple[str, int], Classification],
    ) -> None:
        self._routing = inputs.routing
        self._geo = inputs.geo
        # One sorted pass over the classification table precomputes every
        # domain's stable infrastructure: ASNs and countries in first-seen
        # order over the domain's periods.
        acc: dict[str, tuple[list[int], list[str]]] = {}
        for (domain, _), classification in sorted(classifications.items()):
            asns, ccs = acc.setdefault(domain, ([], []))
            for deployment in classification.stable:
                if deployment.asn not in asns:
                    asns.append(deployment.asn)
                for cc in sorted(deployment.countries):
                    if cc not in ccs:
                        ccs.append(cc)
        self._infra: dict[str, tuple[tuple[int, ...], tuple[str, ...]]] = {
            domain: (tuple(asns), tuple(ccs)) for domain, (asns, ccs) in acc.items()
        }

    def _locate_ip(self, ip: str) -> tuple[int | None, str | None]:
        asn = self._routing.lookup(ip) if self._routing else None
        cc = self._geo.lookup(ip) if self._geo else None
        return asn, cc

    def from_inspection(self, result: InspectionResult) -> DomainFinding:
        entry = result.entry
        first_evidence: date | None = None
        if result.evidence.a_redirects:
            first_evidence = min(r.first_seen for r in result.evidence.a_redirects)
        elif result.evidence.ns_changes:
            first_evidence = min(r.first_seen for r in result.evidence.ns_changes)
        else:
            first_evidence = entry.transient.first_seen

        attacker_ip = sorted(result.attacker_ips)
        asn, cc = (None, None)
        if attacker_ip:
            asn, cc = self._locate_ip(attacker_ip[0])
        if asn is None:
            asn = entry.transient.asn
        if cc is None:
            ccs = sorted(entry.transient.countries)
            cc = ccs[0] if ccs else None

        subdomain = ""
        target_names = list(entry.sensitive_names)
        if result.malicious_cert is not None:
            target_names = [
                n for n in result.malicious_cert.certificate.sans if not n.startswith("*.")
            ]
        if target_names:
            name = sorted(target_names, key=len)[0]
            if name != entry.domain and name.endswith("." + entry.domain):
                subdomain = name[: -(len(entry.domain) + 1)]

        victim_asns, victim_ccs = self._infra.get(entry.domain, ((), ()))
        return DomainFinding(
            domain=entry.domain,
            provenance=trail_from_inspection(result, self._locate_ip),
            verdict=result.verdict,
            detection=result.detection,
            first_evidence=first_evidence,
            subdomain=subdomain,
            pdns_corroborated=result.evidence.has_pdns,
            ct_corroborated=result.malicious_cert is not None or result.evidence.has_ct,
            attacker_ips=tuple(attacker_ip),
            attacker_asn=asn,
            attacker_cc=cc,
            attacker_ns=tuple(sorted(result.attacker_ns)),
            victim_asns=victim_asns,
            victim_ccs=victim_ccs,
            crtsh_id=result.malicious_cert.crtsh_id if result.malicious_cert else 0,
            issuer_ca=result.malicious_cert.issuer if result.malicious_cert else "",
            notes=tuple(result.evidence.notes),
        )

    def from_pivot(self, pivot: PivotFinding) -> DomainFinding:
        a_rows = [r for r in pivot.pdns_rows if r.rtype.value == "A"]
        first_evidence = (
            min(r.first_seen for r in pivot.pdns_rows) if pivot.pdns_rows else None
        )
        attacker_ips = tuple(sorted(pivot.attacker_ips or {r.rdata for r in a_rows}))
        asn, cc = (None, None)
        if attacker_ips:
            asn, cc = self._locate_ip(attacker_ips[0])

        subdomain = ""
        named = [r.rrname for r in a_rows if r.rrname != pivot.domain]
        if pivot.malicious_cert is not None:
            sans = [
                n
                for n in pivot.malicious_cert.certificate.sans
                if not n.startswith("*.") and n != pivot.domain
            ]
            named = sans or named
        if named:
            name = sorted(named, key=len)[0]
            if name.endswith("." + pivot.domain):
                subdomain = name[: -(len(pivot.domain) + 1)]

        victim_asns, victim_ccs = self._infra.get(pivot.domain, ((), ()))
        return DomainFinding(
            domain=pivot.domain,
            provenance=trail_from_pivot(pivot, self._locate_ip),
            verdict=pivot.verdict,
            detection=pivot.detection,
            first_evidence=first_evidence,
            subdomain=subdomain,
            pdns_corroborated=bool(pivot.pdns_rows),
            ct_corroborated=pivot.malicious_cert is not None,
            attacker_ips=attacker_ips,
            attacker_asn=asn,
            attacker_cc=cc,
            attacker_ns=tuple(sorted(pivot.attacker_ns)),
            victim_asns=victim_asns,
            victim_ccs=victim_ccs,
            crtsh_id=pivot.malicious_cert.crtsh_id if pivot.malicious_cert else 0,
            issuer_ca=pivot.malicious_cert.issuer if pivot.malicious_cert else "",
            notes=(f"pivot via {pivot.via}",),
        )


# -- the stages ----------------------------------------------------------------


class DeploymentMapStage(Stage):
    """Step 1: per-(domain, period) deployment maps, sharded by domain."""

    name = "deployment_maps"
    parallel = True
    products = ("maps",)
    cache_version = 2  # entries now store the encoded columnar form
    config_deps = ("max_gap_scans",)

    @staticmethod
    def _decode_all(
        ctx: HuntContext, encoded_by_domain: list
    ) -> dict[tuple[str, int], object]:
        maps: dict[tuple[str, int], object] = {}
        for domain, encoded in encoded_by_domain:
            maps.update(
                decode_domain_maps(
                    domain, encoded, ctx.inputs.scan, ctx.inputs.periods
                )
            )
        return maps

    def run(self, ctx: HuntContext, backend: ExecutionBackend) -> StageStats:
        domains = ctx.inputs.scan.domains()
        # The kernel sweeps domain ordinals (shards pickle as ``range``
        # slices) and ships the compact int-tuple encoding — pool ids
        # over the shared scan table, not object graphs; materialize the
        # map objects here against the parent table.
        per_domain = backend.map("deployment", range(len(domains)))
        # Index the pool only for domains that mapped to something:
        # enumerate keeps the sweep over a million-domain population from
        # decoding a million pooled strings just to pair empty results.
        ctx.maps_encoded = [
            (domains[i], encoded)
            for i, encoded in enumerate(per_domain)
            if encoded
        ]
        ctx.maps = self._decode_all(ctx, ctx.maps_encoded)
        n_domains = len({d for d, _ in ctx.maps})
        registry = get_registry()
        registry.set_gauge("deployment.maps", len(ctx.maps))
        registry.set_gauge("deployment.domains", n_domains)
        logger.info(
            "step 1: %d deployment maps over %d domains", len(ctx.maps), n_domains
        )
        return StageStats(
            n_in=len(domains), n_out=len(ctx.maps), detail={"domains_mapped": n_domains}
        )

    def cache_products(self, ctx: HuntContext) -> dict[str, object]:
        # Entries store the encoded columnar form — the same int-tuple
        # payload the workers shipped — never the map object graphs.
        # Decoding on a hit resolves pool ids against the restoring
        # process's table, whose interning is a pure function of the
        # digested row stream, so ids mean the same thing there.
        return {"encoded_maps": ctx.maps_encoded}

    def restore_products(self, ctx: HuntContext, products: dict) -> None:
        ctx.maps_encoded = products["encoded_maps"]
        if ctx.maps:
            return  # post-store call: the context already holds the maps
        ctx.maps = self._decode_all(ctx, ctx.maps_encoded)


class ClassificationStage(Stage):
    """Step 2: classify every map as stable/transition/transient/noisy.

    Runs inline in the parent on every backend: classifying a map costs
    microseconds while shipping it to a worker costs kilobytes, so
    fan-out can only lose here.  The classifier operates on the
    deployment stage's *encoded* maps — scan-calendar indices and pool
    ids, no object graphs — and its compact
    :data:`~repro.core.patterns.EncodedClassification` wire form doubles
    as the stage's cache product: a warm run restores the codes and
    decodes them against the already-restored maps, instead of the old
    uncacheable reclassify-every-map path.
    """

    name = "classify"
    products = ("classifications",)
    cache_version = 2  # entries now store the encoded columnar form
    config_deps = ("patterns",)

    @staticmethod
    def _decode_all(
        ctx: HuntContext, encoded_by_domain: list
    ) -> dict[tuple[str, int], Classification]:
        classifications: dict[tuple[str, int], Classification] = {}
        for domain, per_domain in encoded_by_domain:
            for period_index, encoded in per_domain:
                key = (domain, period_index)
                classifications[key] = decode_classification(ctx.maps[key], encoded)
        return classifications

    def run(self, ctx: HuntContext, backend: ExecutionBackend) -> StageStats:
        items = ctx.maps_encoded
        encoded = backend.run_inline("classify", items)
        ctx.classifications_encoded = [
            (domain, per_domain)
            for (domain, _), per_domain in zip(items, encoded)
        ]
        ctx.classifications = self._decode_all(ctx, ctx.classifications_encoded)
        kinds: dict[str, int] = {}
        for classification in ctx.classifications.values():
            kinds[classification.kind.name.lower()] = (
                kinds.get(classification.kind.name.lower(), 0) + 1
            )
        registry = get_registry()
        for kind, count in kinds.items():
            registry.inc(f"classify.{kind}", count)
        n_transient = kinds.get("transient", 0)
        logger.info("step 2: %d transient maps", n_transient)
        return StageStats(
            n_in=len(ctx.maps), n_out=len(ctx.classifications), detail=kinds
        )

    def cache_products(self, ctx: HuntContext) -> dict[str, object]:
        return {"encoded": ctx.classifications_encoded}

    def restore_products(self, ctx: HuntContext, products: dict) -> None:
        ctx.classifications_encoded = products["encoded"]
        if ctx.classifications:
            return  # post-store call: the context already holds the objects
        ctx.classifications = self._decode_all(ctx, ctx.classifications_encoded)


class ShortlistStage(Stage):
    """Step 3: prune transients down to the inspection shortlist.

    Serial by design: every check reads the full classification table
    (org relations across periods, recurring-transient runs).
    """

    name = "shortlist"
    products = ("shortlist", "decisions")
    cache_version = 2  # entries now store the encoded columnar form
    config_deps = ("shortlist",)

    def run(self, ctx: HuntContext, backend: ExecutionBackend) -> StageStats:
        shortlister = Shortlister(
            ctx.inputs.as2org, ctx.inputs.scan, ctx.config.shortlist
        )
        ctx.shortlist, ctx.decisions = shortlister.evaluate(ctx.classifications)
        n_transient = sum(
            1
            for c in ctx.classifications.values()
            if c.kind is PatternKind.TRANSIENT
        )
        pruned: dict[str, int] = {}
        for decision in ctx.decisions:
            if not decision.kept:
                pruned[decision.reason] = pruned.get(decision.reason, 0) + 1
        registry = get_registry()
        registry.set_gauge("shortlist.candidates", len(ctx.shortlist))
        for reason, count in pruned.items():
            registry.inc(f"shortlist.pruned.{reason}", count)
        logger.info(
            "step 3: %d shortlisted (%d pruned)",
            len(ctx.shortlist), sum(pruned.values()),
        )
        return StageStats(n_in=n_transient, n_out=len(ctx.shortlist), detail=pruned)

    def cache_products(self, ctx: HuntContext) -> dict[str, object]:
        # Entries are positional references — transient index inside the
        # classification, scan-table row ids for the evidence records —
        # not the entry object graphs (see ``encode_shortlist``).
        return {"encoded": encode_shortlist(ctx.shortlist, ctx.decisions)}

    def restore_products(self, ctx: HuntContext, products: dict) -> None:
        if ctx.shortlist or ctx.decisions:
            return  # post-store call: the context already holds the objects
        ctx.shortlist, ctx.decisions = decode_shortlist(
            products["encoded"], ctx.classifications, ctx.inputs.scan
        )


class InspectionStage(Stage):
    """Step 4: corroborate entries (fan-out) plus the T1* second pass."""

    name = "inspect"
    parallel = True
    products = ("inspections", "confirmed_ips", "confirmed_ns")
    cache_version = 2  # entries now store the encoded columnar form
    config_deps = ("inspection", "enable_t1_star")

    def run(self, ctx: HuntContext, backend: ExecutionBackend) -> StageStats:
        # Workers ship each result's compact wire form — pDNS row ids
        # and (fingerprint, ordinal) CT references; materialize the
        # evidence object graphs here against the parent's tables.
        encoded = backend.map("inspect", ctx.shortlist)
        ctx.inspections = [
            decode_inspection(enc, entry, ctx.inputs.pdns, ctx.inputs.crtsh)
            for entry, enc in zip(ctx.shortlist, encoded)
        ]
        logger.info(
            "step 4: %d hijacked, %d targeted from direct inspection",
            sum(1 for r in ctx.inspections if r.verdict is Verdict.HIJACKED),
            sum(1 for r in ctx.inspections if r.verdict is Verdict.TARGETED),
        )

        for result in ctx.inspections:
            if result.verdict is Verdict.HIJACKED:
                ctx.confirmed_ips.update(result.attacker_ips)
                ctx.confirmed_ns.update(result.attacker_ns)

        n_upgraded = 0
        if ctx.config.enable_t1_star:
            pending = [r for r in ctx.inspections if r.pending_t1_star]
            upgraded = Inspector.resolve_t1_star(
                pending, frozenset(ctx.confirmed_ips)
            )
            n_upgraded = len(upgraded)
            for result in upgraded:
                ctx.confirmed_ips.update(result.attacker_ips)
                ctx.confirmed_ns.update(result.attacker_ns)

        n_out = sum(
            1
            for r in ctx.inspections
            if r.verdict in (Verdict.HIJACKED, Verdict.TARGETED)
        )
        registry = get_registry()
        registry.inc("inspection.t1_star_upgraded", n_upgraded)
        registry.set_gauge("inspection.positive", n_out)
        return StageStats(
            n_in=len(ctx.shortlist),
            n_out=n_out,
            detail={"t1_star_upgraded": n_upgraded},
        )

    def cache_products(self, ctx: HuntContext) -> dict[str, object]:
        # Results re-encode *after* the T1* second pass, so a warm run
        # restores the upgraded verdicts without repeating it.  Results
        # align positionally with the (restored) shortlist.
        return {
            "encoded": tuple(
                encode_inspection(result, ctx.inputs.pdns, ctx.inputs.crtsh)
                for result in ctx.inspections
            ),
            "confirmed_ips": tuple(sorted(ctx.confirmed_ips)),
            "confirmed_ns": tuple(sorted(ctx.confirmed_ns)),
        }

    def restore_products(self, ctx: HuntContext, products: dict) -> None:
        ctx.confirmed_ips = set(products["confirmed_ips"])
        ctx.confirmed_ns = set(products["confirmed_ns"])
        if ctx.inspections:
            return  # post-store call: the context already holds the objects
        ctx.inspections = [
            decode_inspection(enc, entry, ctx.inputs.pdns, ctx.inputs.crtsh)
            for entry, enc in zip(ctx.shortlist, products["encoded"])
        ]


class PivotStage(Stage):
    """Step 5: pivot on confirmed attacker IPs and nameservers."""

    name = "pivot"
    products = ("pivots",)
    config_deps = ("enable_pivot", "inspection")

    def run(self, ctx: HuntContext, backend: ExecutionBackend) -> StageStats:
        ctx.pivots = []
        n_infra = len(ctx.confirmed_ips) + len(ctx.confirmed_ns)
        if ctx.config.enable_pivot and (ctx.confirmed_ips or ctx.confirmed_ns):
            known = {
                r.domain
                for r in ctx.inspections
                if r.verdict in (Verdict.HIJACKED, Verdict.TARGETED)
            }
            analyzer = PivotAnalyzer(
                ctx.inputs.pdns, ctx.inputs.crtsh, ctx.config.inspection
            )
            ctx.pivots = analyzer.pivot(
                frozenset(ctx.confirmed_ips), frozenset(ctx.confirmed_ns), known
            )
            logger.info(
                "step 5: pivot on %d IPs / %d nameservers found %d more victims",
                len(ctx.confirmed_ips), len(ctx.confirmed_ns), len(ctx.pivots),
            )
        get_registry().set_gauge("pivot.findings", len(ctx.pivots))
        return StageStats(n_in=n_infra, n_out=len(ctx.pivots))


class AssembleStage(Stage):
    """Merge verdicts into per-domain findings, the funnel, the report.

    Cacheable since the wire-form rework: findings serialize as the same
    JSON-safe rows :func:`repro.io.reports.save_findings` writes, so a
    warm run restores them with :func:`finding_from_row` instead of
    re-walking provenance trails, then reassembles the (cheap) funnel
    and report from the restored upstream products — keeping the report
    gauges in the run's metrics registry either way.
    """

    name = "assemble"
    products = ("findings",)
    cache_version = 2  # entries store finding rows, not object graphs

    def run(self, ctx: HuntContext, backend: ExecutionBackend) -> StageStats:
        builder = _FindingBuilder(ctx.inputs, ctx.classifications)
        findings: list[DomainFinding] = []
        seen: set[str] = set()
        for result in ctx.inspections:
            if result.verdict in (Verdict.HIJACKED, Verdict.TARGETED):
                if result.domain in seen:
                    continue
                findings.append(builder.from_inspection(result))
                seen.add(result.domain)
        for pivot in ctx.pivots:
            if pivot.domain in seen:
                continue
            findings.append(builder.from_pivot(pivot))
            seen.add(pivot.domain)
        findings.sort(
            key=lambda f: ((f.victim_ccs[0] if f.victim_ccs else "zz"), f.domain)
        )
        ctx.findings = findings
        self._finish(ctx)
        n_in = len(ctx.inspections) + len(ctx.pivots)
        return StageStats(n_in=n_in, n_out=len(findings))

    @staticmethod
    def _finish(ctx: HuntContext) -> None:
        """Funnel, report, and gauges over the context's products."""
        funnel = _funnel_stats(
            ctx.classifications, ctx.shortlist, ctx.decisions, ctx.inspections,
            ctx.pivots,
        )
        ctx.report = PipelineReport(
            funnel=funnel,
            findings=ctx.findings,
            classifications=ctx.classifications,
            shortlist=ctx.shortlist,
            inspections=ctx.inspections,
            pivots=ctx.pivots,
            attacker_ips=frozenset(ctx.confirmed_ips),
            attacker_ns=frozenset(ctx.confirmed_ns),
        )
        registry = get_registry()
        registry.set_gauge("report.findings", len(ctx.findings))
        registry.set_gauge(
            "report.hijacked",
            sum(1 for f in ctx.findings if f.verdict is Verdict.HIJACKED),
        )

    def cache_products(self, ctx: HuntContext) -> dict[str, object]:
        return {"finding_rows": tuple(finding_to_row(f) for f in ctx.findings)}

    def restore_products(self, ctx: HuntContext, products: dict) -> None:
        if ctx.report is not None:
            return  # post-store call: the report is already assembled
        ctx.findings = [finding_from_row(row) for row in products["finding_rows"]]
        self._finish(ctx)


#: The funnel stages, in paper order, plus the report assembly.
def build_stages() -> tuple[Stage, ...]:
    return (
        DeploymentMapStage(),
        ClassificationStage(),
        ShortlistStage(),
        InspectionStage(),
        PivotStage(),
        AssembleStage(),
    )


def _funnel_stats(
    classifications, shortlist, decisions, inspections, pivots
) -> FunnelStats:
    stats = FunnelStats()
    stats.n_maps = len(classifications)
    stats.n_domains = len({d for d, _ in classifications})
    for classification in classifications.values():
        if classification.kind is PatternKind.STABLE:
            stats.n_stable += 1
        elif classification.kind is PatternKind.TRANSITION:
            stats.n_transition += 1
        elif classification.kind is PatternKind.TRANSIENT:
            stats.n_transient += 1
        elif classification.kind is PatternKind.NOISY:
            stats.n_noisy += 1
    stats.n_shortlisted = len(shortlist)
    stats.n_truly_anomalous = sum(1 for e in shortlist if e.truly_anomalous)
    stats.n_worth_examining = sum(
        1
        for r in inspections
        if not (r.verdict is Verdict.BENIGN and r.evidence.stale_certificate)
    )
    for decision in decisions:
        if not decision.kept:
            stats.prune_reasons[decision.reason] = (
                stats.prune_reasons.get(decision.reason, 0) + 1
            )
    for result in inspections:
        if result.verdict is Verdict.HIJACKED:
            if result.detection is DetectionType.T1:
                stats.n_t1_hijacked += 1
            elif result.detection is DetectionType.T2:
                stats.n_t2_hijacked += 1
            elif result.detection is DetectionType.T1_STAR:
                stats.n_t1_star += 1
        elif result.verdict is Verdict.TARGETED:
            stats.n_targeted += 1
    for pivot in pivots:
        if pivot.detection is DetectionType.P_IP:
            stats.n_pivot_ip += 1
        else:
            stats.n_pivot_ns += 1
    return stats


def _funnel_summary(funnel: FunnelStats) -> dict[str, int]:
    summary = {
        f.name: getattr(funnel, f.name)
        for f in fields(FunnelStats)
        if f.name != "prune_reasons"
    }
    summary["n_hijacked"] = funnel.n_hijacked
    return summary


class HijackPipeline:
    """End-to-end retroactive hijack identification."""

    def __init__(
        self,
        inputs: PipelineInputs,
        config: PipelineConfig | None = None,
        *,
        faults: FaultPlan | FaultSpec | str | None = None,
    ) -> None:
        if not isinstance(inputs, PipelineInputs):
            # The PR-1-deprecated eight-argument form (scan, pdns, crtsh,
            # as2org, periods, ...) is gone: bundling is the only path.
            raise TypeError(
                "HijackPipeline takes a PipelineInputs bundle (got "
                f"{type(inputs).__name__}); build one with PipelineInputs(...) "
                "or use HijackPipeline.from_study / from_directory"
            )
        self._inputs = inputs
        self._config = config or PipelineConfig()
        # A plan passes through as-is (its seed matters); a bare spec or
        # spec string binds to seed 0.
        self._faults = (
            faults
            if isinstance(faults, FaultPlan)
            else FaultPlan.from_spec(faults)
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_study(
        cls,
        study,
        config: PipelineConfig | None = None,
        faults: FaultPlan | FaultSpec | str | None = None,
    ) -> HijackPipeline:
        """Build the pipeline over a simulated study's datasets."""
        return cls(PipelineInputs.from_study(study), config=config, faults=faults)

    @classmethod
    def from_directory(
        cls,
        path: str | Path,
        config: PipelineConfig | None = None,
        faults: FaultPlan | FaultSpec | str | None = None,
    ) -> HijackPipeline:
        """Build the pipeline over an exported study directory."""
        return cls(PipelineInputs.from_directory(path), config=config, faults=faults)

    @property
    def inputs(self) -> PipelineInputs:
        return self._inputs

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def faults(self) -> FaultPlan:
        return self._faults

    # -- the run ---------------------------------------------------------------

    def run(
        self,
        backend: ExecutionBackend | None = None,
        cache: StageCache | None = None,
    ) -> PipelineReport:
        """Run the funnel; identical reports under every backend."""
        report, _ = self.profile(backend, cache=cache)
        return report

    def profile(
        self,
        backend: ExecutionBackend | None = None,
        tracer: Tracer | None = None,
        cache: StageCache | None = None,
        events: EventSink | None = None,
        memory: bool = False,
        ledger: RunLedger | None = None,
        label: str = "hunt",
    ) -> tuple[PipelineReport, RunMetrics]:
        """Run the funnel and return the report plus its run manifest.

        With a non-empty fault plan the inputs are degraded up front
        (losses land in the context's :class:`DataQuality` ledger and in
        the manifest's ``data_quality`` section) and the backend injects
        the plan's worker faults, absorbing them via retry/backoff.  An
        empty plan takes exactly the fault-free code path.

        An enabled :class:`repro.obs.Tracer` collects the run's
        hierarchical span tree (run → stage → task-chunk across worker
        pids); the report is required to be byte-identical with tracing
        on or off.  Same contract for ``events`` (a live heartbeat
        :class:`repro.obs.EventSink`) and ``ledger`` (a
        :class:`repro.obs.RunLedger` the executor appends the run's
        durable record to, keyed so that timing-only worker faults land
        with the clean baseline).  ``memory=True`` additionally traces
        per-stage allocations with :mod:`tracemalloc` — measurably
        slower, so opt-in; peak RSS is sampled regardless.

        A :class:`repro.cache.StageCache` turns repeat runs into cache
        loads: the run key is derived from the *degraded* input bundle
        (so dataset faults key distinctly), the fault plan, and the
        configuration.  Warm runs are required to produce byte-identical
        reports under every backend.
        """
        quality = DataQuality()
        inputs = apply_faults(self._inputs, self._faults, quality)
        ctx = HuntContext(inputs=inputs, config=self._config, quality=quality)
        run_key = None
        if cache is not None:
            from repro.cache.fingerprint import derive_run_key

            run_key = derive_run_key(inputs, self._faults, self._config)
        ledger_info = None
        ledger_extra = None
        if ledger is not None:
            ledger_info, ledger_extra = self._ledger_identity(backend, label)
        executor = PipelineExecutor(
            build_stages(), backend=backend, tracer=tracer,
            cache=cache, run_key=run_key,
            events=events, memory=memory,
            ledger=ledger, ledger_info=ledger_info, ledger_extra=ledger_extra,
        )
        executor.backend.install_faults(self._faults)
        metrics = executor.execute(ctx)
        assert ctx.report is not None
        metrics.funnel = _funnel_summary(ctx.report.funnel)
        return ctx.report, metrics

    def _ledger_identity(self, backend: ExecutionBackend | None, label: str):
        """The run's ledger identity plus the record-finisher callback.

        The matching key folds in config and *data-channel* faults only
        — worker faults are timing-only by contract, so an injected
        slowdown shares the clean run's key and the regression sentinel
        can compare the two.  The finisher runs at run end inside the
        executor, attaching what only the pipeline can compute: the
        funnel summary and the report drift digest.
        """
        from repro.cache.fingerprint import config_digest
        from repro.io.golden import report_digest
        from repro.obs.ledger import LedgerInfo, data_fault_digest, ledger_key

        cfg_digest = config_digest(self._config)
        faults_digest = data_fault_digest(self._faults)
        resolved = backend or SerialBackend()
        info = LedgerInfo(
            kind="pipeline",
            key=ledger_key(
                "pipeline",
                label,
                config_digest=cfg_digest,
                faults_digest=faults_digest,
                backend=resolved.name,
                jobs=resolved.jobs,
            ),
            label=label,
            config_digest=cfg_digest,
            faults_digest=faults_digest,
            faults=(
                "" if self._faults.is_empty else self._faults.spec.format()
            ),
        )

        def finish(ctx: StageContext) -> dict:
            extra: dict = {}
            report = getattr(ctx, "report", None)
            if report is not None:
                extra["funnel"] = _funnel_summary(report.funnel)
                extra["report_digest"] = report_digest(report)
            return extra

        return info, finish
