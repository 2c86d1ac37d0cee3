"""Test-only reference models of the funnel's row-at-a-time semantics.

The pipeline builds deployment maps, classifies them and shortlists
transients with columnar kernels over the scan table, and answers every
pDNS and crt.sh question from the columnar tables
(:class:`~repro.pdns.table.PdnsTable`, :class:`~repro.ct.table.CtTable`).
These models answer the same questions the plain way — clustering
explicit record lists, classifying the object map, filtering a domain's
records for shortlist evidence, a linear walk over aggregate rows, a
per-SAN list index over published log entries, a per-domain rescan of
the classification table — and are the oracles the Hypothesis and funnel
differentials compare the production paths against.  The channel models
expose the query methods the inspection stage calls, so an
:class:`~repro.core.inspection.Inspector` can run over them unchanged.
"""

from __future__ import annotations

from datetime import date, timedelta
from typing import Iterable

from repro.core.deployment import Deployment, DeploymentGroup, DeploymentMap
from repro.core.patterns import Classification, PatternConfig, transient_subpattern_of
from repro.core.shortlist import PruneDecision, ShortlistEntry, Shortlister
from repro.core.types import PatternKind, SubPattern
from repro.ct.crtsh import CrtShEntry, CrtShService
from repro.dns.records import RRType
from repro.net.names import is_sensitive_name, registered_domain
from repro.net.timeline import DateInterval, Period
from repro.pdns.database import PdnsRecord
from repro.scan.annotate import AnnotatedScanRecord
from repro.tls.certificate import Certificate
from repro.tls.matching import san_matches
from repro.tls.revocation import RevocationRegistry


class ReferencePdns:
    """Linear passive-DNS aggregation and queries."""

    def __init__(self) -> None:
        # (rrname, rtype, rdata) -> [first_seen, last_seen, count]
        self._rows: dict[tuple[str, RRType, str], list] = {}
        self._records: list[PdnsRecord] | None = None

    @classmethod
    def from_records(cls, records: Iterable[PdnsRecord]) -> ReferencePdns:
        model = cls()
        for r in records:
            model._rows[(r.rrname, r.rtype, r.rdata)] = [r.first_seen, r.last_seen, r.count]
        return model

    def add_observation(self, rrname: str, rtype: RRType, rdata: str, day: date) -> None:
        rrname = rrname.lower().rstrip(".")
        rdata = rdata.lower().rstrip(".") if rtype is RRType.NS else rdata
        row = self._rows.setdefault((rrname, rtype, rdata), [day, day, 0])
        row[0] = min(row[0], day)
        row[1] = max(row[1], day)
        row[2] += 1
        self._records = None

    def records(self) -> list[PdnsRecord]:
        if self._records is None:
            self._records = [
                PdnsRecord(rrname, rtype, rdata, first, last, count)
                for (rrname, rtype, rdata), (first, last, count) in self._rows.items()
            ]
        return self._records

    @staticmethod
    def _within(records: list[PdnsRecord], window: DateInterval | None) -> list[PdnsRecord]:
        if window is None:
            return records
        return [r for r in records if r.overlaps(window)]

    def query_name(
        self, rrname: str, rtype: RRType | None = None, window: DateInterval | None = None
    ) -> list[PdnsRecord]:
        rrname = rrname.lower().rstrip(".")
        records = [
            r for r in self.records()
            if r.rrname == rrname and (rtype is None or r.rtype is rtype)
        ]
        return sorted(self._within(records, window), key=lambda r: (r.first_seen, r.rdata))

    def query_domain(self, domain: str, window: DateInterval | None = None) -> list[PdnsRecord]:
        base = registered_domain(domain)
        records = [
            r for r in self.records()
            if r.rrname == base or r.rrname.endswith("." + base)
        ]
        return sorted(
            self._within(records, window), key=lambda r: (r.rrname, r.first_seen, r.rdata)
        )

    def query_rdata(
        self, rdata: str, rtype: RRType | None = None, window: DateInterval | None = None
    ) -> list[PdnsRecord]:
        rdata_key = rdata.lower().rstrip(".")
        records = [
            r for r in self.records()
            if (r.rdata == rdata_key or (rtype is not RRType.NS and r.rdata == rdata))
            and (rtype is None or r.rtype is rtype)
        ]
        return sorted(self._within(records, window), key=lambda r: (r.rrname, r.first_seen))

    def a_history(self, fqdn: str, window: DateInterval | None = None) -> list[PdnsRecord]:
        return self.query_name(fqdn, RRType.A, window)

    def ns_history(self, domain: str, window: DateInterval | None = None) -> list[PdnsRecord]:
        return self.query_name(registered_domain(domain), RRType.NS, window)


class ReferenceCrtSh:
    """crt.sh over a per-SAN registered-domain list index.

    Every published entry is appended to the list of each SAN's
    registered domain, once per SAN, in ``(log, entry)`` order; a search
    filters one list and sorts it by ``(not_before, crtsh_id)``.
    """

    def __init__(
        self,
        logs,
        revocations: RevocationRegistry,
        asof: date | None = None,
        delay_days: int = 0,
        horizon: date | None = None,
    ) -> None:
        self._revocations = revocations
        self._asof = asof
        self.hidden_entries = 0
        self._index: dict[str, list[tuple[Certificate, date]]] = {}
        for log in logs:
            for entry in log.entries():
                published = entry.timestamp + timedelta(days=delay_days)
                if horizon is not None and published > horizon:
                    self.hidden_entries += 1
                    continue
                for san in entry.certificate.sans:
                    try:
                        base = registered_domain(san[2:] if san.startswith("*.") else san)
                    except ValueError:
                        continue
                    self._index.setdefault(base, []).append((entry.certificate, published))

    @classmethod
    def from_service(cls, service: CrtShService) -> ReferenceCrtSh:
        return cls(
            service._logs,
            service._revocations,
            service._asof,
            service._publication_delay.days,
            service._publication_horizon,
        )

    def _entry(self, cert: Certificate, logged_at: date) -> CrtShEntry:
        asof = self._asof or (cert.not_after + timedelta(days=365))
        status = self._revocations.retroactive_status(cert, asof)
        return CrtShEntry(cert.crtsh_id, cert, logged_at, status)

    def search(
        self,
        domain: str,
        issued_after: date | None = None,
        issued_before: date | None = None,
    ) -> list[CrtShEntry]:
        results = [
            self._entry(cert, logged_at)
            for cert, logged_at in self._index.get(registered_domain(domain), [])
            if (issued_after is None or cert.not_before >= issued_after)
            and (issued_before is None or cert.not_before <= issued_before)
        ]
        return sorted(results, key=lambda e: (e.issued_on, e.crtsh_id))

    def search_exact(
        self,
        fqdn: str,
        issued_after: date | None = None,
        issued_before: date | None = None,
    ) -> list[CrtShEntry]:
        return [
            entry
            for entry in self.search(fqdn, issued_after, issued_before)
            if any(san_matches(san, fqdn) for san in entry.certificate.sans)
        ]

    def lookup_id(self, crtsh_id: int) -> CrtShEntry | None:
        for certs in self._index.values():
            for cert, logged_at in certs:
                if cert.crtsh_id == crtsh_id:
                    return self._entry(cert, logged_at)
        return None


def victim_infra(classifications, domain: str) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """A domain's stable ASNs and countries, by rescanning every
    classification in key order."""
    asns: list[int] = []
    ccs: list[str] = []
    for (d, _), classification in sorted(classifications.items()):
        if d != domain:
            continue
        for deployment in classification.stable:
            if deployment.asn not in asns:
                asns.append(deployment.asn)
            for cc in sorted(deployment.countries):
                if cc not in ccs:
                    ccs.append(cc)
    return tuple(asns), tuple(ccs)


# -- step 1: the row-at-a-time deployment map ----------------------------------


def _cluster(
    domain: str,
    groups: list[DeploymentGroup],
    scan_dates: tuple[date, ...],
    max_gap_scans: int,
) -> list[Deployment]:
    """Cluster same-ASN groups, splitting on gaps > ``max_gap_scans``."""
    index_of = {d: i for i, d in enumerate(scan_dates)}
    by_asn: dict[int, list[DeploymentGroup]] = {}
    for group in groups:
        by_asn.setdefault(group.asn, []).append(group)

    deployments: list[Deployment] = []
    for asn, asn_groups in by_asn.items():
        asn_groups.sort(key=lambda g: g.scan_date)
        current = Deployment(domain=domain, asn=asn, groups=[asn_groups[0]])
        for group in asn_groups[1:]:
            gap = index_of[group.scan_date] - index_of[current.groups[-1].scan_date]
            if gap > max_gap_scans:
                deployments.append(current)
                current = Deployment(domain=domain, asn=asn, groups=[group])
            else:
                current.groups.append(group)
        deployments.append(current)
    deployments.sort(key=lambda d: (d.first_seen, d.asn))
    return deployments


def build_deployment_map(
    domain: str,
    records: list[AnnotatedScanRecord],
    period: Period,
    scan_dates_in_period: tuple[date, ...],
    max_gap_scans: int = 6,
) -> DeploymentMap:
    """Build one domain's deployment map for one period from explicit
    records: one group per (scan date, ASN) cell, clustered per ASN."""
    in_period = [r for r in records if period.contains(r.scan_date)]
    cells: dict[tuple[date, int], dict[str, set]] = {}
    for record in in_period:
        cell = cells.setdefault(
            (record.scan_date, record.asn), {"ips": set(), "certs": set(), "ccs": set()}
        )
        cell["ips"].add(record.ip)
        cell["certs"].add(record.certificate.fingerprint)
        cell["ccs"].add(record.country)

    groups = [
        DeploymentGroup(
            domain=domain,
            scan_date=scan_date,
            asn=asn,
            ips=frozenset(cell["ips"]),
            cert_fingerprints=frozenset(cell["certs"]),
            countries=frozenset(cell["ccs"]),
        )
        for (scan_date, asn), cell in cells.items()
    ]
    deployments = _cluster(domain, groups, scan_dates_in_period, max_gap_scans)
    return DeploymentMap(
        domain=domain,
        period=period,
        deployments=deployments,
        scan_dates_in_period=scan_dates_in_period,
    )


# -- step 2: the object-graph classifier ---------------------------------------


def _spans_start(deployment: Deployment, visible: tuple, edge_scans: int) -> bool:
    return deployment.first_seen <= visible[min(edge_scans, len(visible) - 1)]

def _spans_end(deployment: Deployment, visible: tuple, edge_scans: int) -> bool:
    return deployment.last_seen >= visible[max(-1 - edge_scans, -len(visible))]


def _stable_subpatterns(stable: list[Deployment]) -> list[SubPattern]:
    """Which of Figure 3's shapes does the stable background exhibit?"""
    subpatterns: list[SubPattern] = []
    for deployment in stable:
        certs_by_date: list[frozenset[str]] = [g.cert_fingerprints for g in deployment.groups]
        all_certs = deployment.cert_fingerprints
        multi_country = len(deployment.countries) > 1
        if len(all_certs) == 1:
            subpatterns.append(SubPattern.S3 if multi_country else SubPattern.S1)
            continue
        # Multiple certificates: rollover (S2) when at most a short overlap
        # between consecutive certificates; otherwise an added certificate
        # on the same infrastructure (S4).
        overlap_scans = sum(1 for certs in certs_by_date if len(certs) > 1)
        if overlap_scans <= 2:
            subpatterns.append(SubPattern.S2)
        else:
            subpatterns.append(SubPattern.S4)
        if multi_country:
            subpatterns.append(SubPattern.S3)
    return subpatterns


def _transition_subpattern(
    transition: Deployment, stable: list[Deployment], visible: tuple, edge_scans: int
) -> SubPattern:
    """Which of Figure 4's shapes is this transition?"""
    new_certs = transition.cert_fingerprints
    for old in stable:
        if old.asn == transition.asn:
            continue
        old_runs_to_end = _spans_end(old, visible, edge_scans)
        if old_runs_to_end:
            shares_cert = bool(new_certs & old.cert_fingerprints)
            return SubPattern.X1 if shares_cert else SubPattern.X2
    return SubPattern.X3


def classify(map_: DeploymentMap, config: PatternConfig | None = None) -> Classification:
    """Classify one deployment map."""
    config = config or PatternConfig()
    visible = map_.visible_dates
    if not visible:
        return Classification(map_, PatternKind.NO_DATA, ())

    stable: list[Deployment] = []
    transitions: list[Deployment] = []
    transients: list[Deployment] = []
    for deployment in map_.deployments:
        starts = _spans_start(deployment, visible, config.edge_scans)
        ends = _spans_end(deployment, visible, config.edge_scans)
        if starts and ends and deployment.scan_count >= config.stable_min_scans:
            stable.append(deployment)
        elif ends and not starts:
            transitions.append(deployment)
        elif deployment.span_days <= config.transient_max_days:
            transients.append(deployment)
        else:
            # Long-lived but neither edge-spanning nor short: treat as a
            # transition that also ended (an X3 whose old deployment this
            # is, or generally unstable behaviour).
            transitions.append(deployment)

    subpatterns: list[SubPattern] = []
    if not stable:
        # An X3 migration has no single edge-to-edge deployment: accept the
        # special case of exactly one early deployment handing off to one
        # late deployment with minimal overlap.
        if len(map_.deployments) == 2:
            first, second = sorted(map_.deployments, key=lambda d: d.first_seen)
            # The paper allows a small overlap between old and new (the
            # shaded region of Figure 4), so only edge coverage matters —
            # but both halves must be substantial: for a domain visible in
            # a handful of scans, "spans the edges" is trivially true and
            # says nothing.
            handoff = (
                _spans_start(first, visible, config.edge_scans)
                and _spans_end(second, visible, config.edge_scans)
                and first.scan_count >= config.stable_min_scans
                and second.scan_count >= config.stable_min_scans
                and len(visible) >= 4 * config.stable_min_scans
            )
            if handoff:
                # Neither half is a *stable* background (the old one ends,
                # the new one starts mid-period); report both as the
                # transition pair.
                return Classification(
                    map_, PatternKind.TRANSITION, (SubPattern.X3,),
                    transitions=[first, second],
                )
        if len(map_.deployments) >= config.noisy_min_deployments:
            return Classification(
                map_, PatternKind.NOISY, (), transients=list(map_.deployments)
            )
        # A single short-lived deployment with nothing else: too little
        # signal to call anything; the paper's "too noisy or unstable".
        return Classification(map_, PatternKind.NOISY, (), transients=list(map_.deployments))

    if transients:
        stable_certs = frozenset().union(*(d.cert_fingerprints for d in stable))
        for transient in transients:
            if transient.cert_fingerprints <= stable_certs:
                subpatterns.append(SubPattern.T2)
            else:
                subpatterns.append(SubPattern.T1)
        return Classification(
            map_, PatternKind.TRANSIENT, tuple(dict.fromkeys(subpatterns)),
            stable=stable, transitions=transitions, transients=transients,
        )

    if transitions:
        for transition in transitions:
            subpatterns.append(
                _transition_subpattern(transition, stable, visible, config.edge_scans)
            )
        return Classification(
            map_, PatternKind.TRANSITION, tuple(dict.fromkeys(subpatterns)),
            stable=stable, transitions=transitions,
        )

    subpatterns = _stable_subpatterns(stable)
    return Classification(
        map_, PatternKind.STABLE, tuple(dict.fromkeys(subpatterns)), stable=stable
    )


# -- step 3: the record-filtering shortlist ------------------------------------


class ReferenceShortlister(Shortlister):
    """The shortlist over record objects instead of table rows.

    A transient's evidence is the domain's records
    (``dataset.records_for``) on its scan dates, ASN and IPs; its
    sensitive names come off those records' trusted certificates; the
    visibility denominator drops the dataset's known-missing scans by a
    plain filter; and the recurring-transient check rescans the
    classification table per domain.  Entries carry no row ids.
    """

    def low_visibility(self, map_: DeploymentMap) -> bool:
        known_missing = self._dataset.known_missing_dates
        if not known_missing:
            return map_.presence < self._config.min_presence
        observed = [d for d in map_.scan_dates_in_period if d not in known_missing]
        if not observed:
            return True  # every scan of the period was lost: cannot judge
        return len(map_.visible_dates) / len(observed) < self._config.min_presence

    def chronically_transient(
        self,
        domain: str,
        classifications: dict[tuple[str, int], Classification],
    ) -> bool:
        """Similar transients in >= N consecutive six-month periods."""
        indices = sorted(
            idx
            for (d, idx), c in classifications.items()
            if d == domain and c.kind is PatternKind.TRANSIENT
        )
        run = best = 1 if indices else 0
        for previous, current in zip(indices, indices[1:]):
            run = run + 1 if current == previous + 1 else 1
            best = max(best, run)
        return best >= self._config.recurring_periods

    def _transient_records(
        self, classification: Classification, transient: Deployment
    ) -> list[AnnotatedScanRecord]:
        dates = set(transient.dates())
        return [
            r
            for r in self._dataset.records_for(classification.domain)
            if r.scan_date in dates
            and r.asn == transient.asn
            and r.ip in transient.ips
        ]

    def _sensitive_trusted_names(
        self, classification: Classification, transient: Deployment
    ) -> tuple[str, ...]:
        names: list[str] = []
        for record in self._transient_records(classification, transient):
            if not record.trusted:
                continue
            names.extend(n for n in record.names if is_sensitive_name(n))
        return tuple(dict.fromkeys(names))

    def evaluate(
        self,
        classifications: dict[tuple[str, int], Classification],
    ) -> tuple[list[ShortlistEntry], list[PruneDecision]]:
        entries: list[ShortlistEntry] = []
        decisions: list[PruneDecision] = []
        for (domain, period_index), classification in sorted(classifications.items()):
            if classification.kind is not PatternKind.TRANSIENT:
                continue

            def prune(reason: str) -> None:
                decisions.append(PruneDecision(domain, period_index, False, reason))

            if self.low_visibility(classification.map):
                prune("low-visibility")
                continue
            if self.chronically_transient(domain, classifications):
                prune("recurring-transients")
                continue

            for transient in classification.transients:
                if self.org_related(classification, transient):
                    prune("org-related-asn")
                    continue
                if self.same_country(classification, transient):
                    prune("same-country")
                    continue
                anomalous = self.truly_anomalous(domain, period_index, classifications)
                sensitive = self._sensitive_trusted_names(classification, transient)
                if not sensitive and not anomalous:
                    prune("no-sensitive-name")
                    continue
                entries.append(
                    ShortlistEntry(
                        domain=domain,
                        period_index=period_index,
                        classification=classification,
                        transient=transient,
                        subpattern=transient_subpattern_of(classification, transient),
                        truly_anomalous=anomalous,
                        sensitive_names=sensitive,
                        transient_records=self._transient_records(
                            classification, transient
                        ),
                        transient_rows=(),
                    )
                )
                decisions.append(PruneDecision(domain, period_index, True, "shortlisted"))
        return entries, decisions
