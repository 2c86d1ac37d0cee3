"""crt.sh-style certificate search service.

Indexes logged certificates by the registered domain of every SAN (the
columnar :class:`~repro.ct.table.CtTable`) and answers the inspection
stage's queries: all certificates ever issued for names under a domain,
optionally restricted to a date window or to a specific FQDN, each
annotated with issuer and retroactively determinable revocation status
(CRL-backed issuers only — the Table 9 asymmetry).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import TYPE_CHECKING

from repro.ct.log import CTLog
from repro.net.names import registered_domain
from repro.tls.certificate import Certificate
from repro.tls.matching import san_matches
from repro.tls.revocation import RevocationRegistry, RevocationStatus

if TYPE_CHECKING:
    from repro.ct.table import CtTable


@dataclass(frozen=True, slots=True)
class CrtShEntry:
    """One search result row, as crt.sh would render it."""

    crtsh_id: int
    certificate: Certificate
    logged_at: date
    revocation: RevocationStatus

    @property
    def issuer(self) -> str:
        return self.certificate.issuer

    @property
    def issued_on(self) -> date:
        return self.certificate.not_before


class CrtShService:
    """Search interface over one or more CT logs."""

    def __init__(
        self,
        logs: list[CTLog] | None = None,
        revocations: RevocationRegistry | None = None,
        asof: date | None = None,
        publication_delay_days: int = 0,
        publication_horizon: date | None = None,
    ) -> None:
        self._logs = list(logs) if logs is not None else []
        # Note: `or` would discard an EMPTY registry (it has __len__ == 0).
        self._revocations = revocations if revocations is not None else RevocationRegistry()
        self._asof = asof
        # Publication lag: every entry surfaces ``delay`` days after its
        # log timestamp, and entries surfacing past the horizon (the
        # retroactive analysis date) are invisible to every query.
        self._publication_delay = timedelta(days=publication_delay_days)
        self._publication_horizon = publication_horizon
        self.hidden_entries = 0
        self._table: CtTable | None = None
        self._table_count = -1
        self._entry_cache: dict[int, CrtShEntry] = {}
        self._status_cache: dict[str, RevocationStatus] = {}
        self._status_rev_len = -1

    def attach_log(self, log: CTLog) -> None:
        self._logs.append(log)

    @property
    def table(self) -> CtTable:
        """The columnar view of the published entries (see
        :class:`repro.ct.table.CtTable`), built lazily and rebuilt when
        the attached logs grow."""
        return self._ensure_table()

    def _ensure_table(self) -> CtTable:
        total = sum(len(log.entries()) for log in self._logs)
        if self._table is None or total != self._table_count:
            from repro.ct.table import CtTable

            self._table = CtTable.from_logs(
                self._logs,
                self._publication_delay.days,
                self._publication_horizon,
            )
            self._table_count = total
            self._entry_cache = {}
            self.hidden_entries = self._table.hidden_entries
        return self._table

    def _entry(self, row: int) -> CrtShEntry:
        """The row as a :class:`CrtShEntry`, memoized per row."""
        if len(self._revocations) != self._status_rev_len:
            # New revocations change the status baked into memoized
            # entries; drop them (``_status`` resets its own memo).
            self._entry_cache = {}
        entry = self._entry_cache.get(row)
        if entry is None:
            table = self._table
            cert = table.certs[table.cert_id[row]]
            entry = CrtShEntry(
                crtsh_id=table.crtsh_id[row],
                certificate=cert,
                logged_at=table.logged_date(row),
                revocation=self._status(cert),
            )
            self._entry_cache[row] = entry
        return entry

    def with_publication_delay(
        self, days: int, horizon: date | None = None
    ) -> CrtShService:
        """Derive a service whose log publication lags by ``days``.

        ``horizon`` is the date the retroactive analysis runs: entries
        whose delayed publication lands after it have not surfaced yet
        and are hidden.  The derived table is built eagerly so
        ``hidden_entries`` is immediately meaningful.
        """
        derived = CrtShService(
            self._logs,
            self._revocations,
            self._asof,
            publication_delay_days=days,
            publication_horizon=horizon,
        )
        derived._ensure_table()
        return derived

    def _status(self, cert: Certificate) -> RevocationStatus:
        # Memoized per fingerprint; the registry is append-only, so the
        # memo only survives while its size is unchanged.
        n_revocations = len(self._revocations)
        if n_revocations != self._status_rev_len:
            self._status_cache = {}
            self._status_rev_len = n_revocations
        status = self._status_cache.get(cert.fingerprint)
        if status is None:
            asof = self._asof or (cert.not_after + timedelta(days=365))
            status = self._revocations.retroactive_status(cert, asof)
            self._status_cache[cert.fingerprint] = status
        return status

    def search(
        self,
        domain: str,
        issued_after: date | None = None,
        issued_before: date | None = None,
    ) -> list[CrtShEntry]:
        """All certificates securing names under ``domain``'s registered domain."""
        rows = self._ensure_table().search_rows(
            registered_domain(domain),
            issued_after.toordinal() if issued_after is not None else None,
            issued_before.toordinal() if issued_before is not None else None,
        )
        return [self._entry(row) for row in rows]

    def search_exact(
        self,
        fqdn: str,
        issued_after: date | None = None,
        issued_before: date | None = None,
    ) -> list[CrtShEntry]:
        """Certificates whose SANs cover exactly this FQDN."""
        return [
            entry
            for entry in self.search(fqdn, issued_after, issued_before)
            if any(san_matches(san, fqdn) for san in entry.certificate.sans)
        ]

    def lookup_id(self, crtsh_id: int) -> CrtShEntry | None:
        """Fetch a single entry by its crt.sh identifier."""
        row = self._ensure_table().lookup_row(crtsh_id)
        return None if row is None else self._entry(row)

    def entry_at(self, fingerprint: str, logged_ord: int) -> CrtShEntry:
        """Decode one entry from its wire-form reference — the
        ``(certificate fingerprint, publication-date ordinal)`` pair the
        inspection stage's encoded evidence carries."""
        table = self._ensure_table()
        return self._entry(table.row_of(fingerprint, logged_ord))

    def __getstate__(self) -> dict:
        # The columnar view and its decode memos never travel: workers
        # rebuild them lazily from the logs, interning identical ids
        # because the (log, entry) row stream is canonical.
        state = self.__dict__.copy()
        state["_table"] = None
        state["_table_count"] = -1
        state["_entry_cache"] = {}
        state["_status_cache"] = {}
        state["_status_rev_len"] = -1
        return state

    def issued_in_window(
        self, fqdn: str, center: date, window_days: int
    ) -> list[CrtShEntry]:
        """Certificates for ``fqdn`` issued within ±``window_days`` of ``center``.

        This is the inspection stage's core question: "was a new
        certificate issued for this sensitive subdomain around the time
        of the transient deployment?"
        """
        lo = center - timedelta(days=window_days)
        hi = center + timedelta(days=window_days)
        return self.search_exact(fqdn, issued_after=lo, issued_before=hi)
