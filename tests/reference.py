"""Test-only reference models of the evidence channels' query semantics.

The pipeline answers every pDNS and crt.sh question from the columnar
tables (:class:`~repro.pdns.table.PdnsTable`, :class:`~repro.ct.table.CtTable`).
These models answer the same questions the plain way — a linear walk
over aggregate rows, a per-SAN list index over published log entries,
a per-domain rescan of the classification table — and are the oracles
the Hypothesis and funnel differentials compare the production paths
against.  They expose the query methods the inspection stage calls, so
an :class:`~repro.core.inspection.Inspector` can run over them unchanged.
"""

from __future__ import annotations

from datetime import date, timedelta
from typing import Iterable

from repro.ct.crtsh import CrtShEntry, CrtShService
from repro.dns.records import RRType
from repro.net.names import registered_domain
from repro.net.timeline import DateInterval
from repro.pdns.database import PdnsRecord
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
