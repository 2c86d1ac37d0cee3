"""The aggregated passive-DNS database."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

from typing import TYPE_CHECKING

from repro.dns.records import RRType
from repro.net.names import registered_domain
from repro.net.timeline import DateInterval

if TYPE_CHECKING:
    from repro.pdns.table import PdnsTable


@dataclass(frozen=True, slots=True)
class PdnsRecord:
    """One aggregated (rrname, rrtype, rdata) observation row."""

    rrname: str
    rtype: RRType
    rdata: str
    first_seen: date
    last_seen: date
    count: int

    @property
    def span_days(self) -> int:
        return (self.last_seen - self.first_seen).days + 1

    def overlaps(self, interval: DateInterval) -> bool:
        return interval.overlaps(DateInterval(self.first_seen, self.last_seen))


class PassiveDNSDatabase:
    """Aggregation + query API over sensor observations.

    Observations fold into an aggregate dict; every query is answered
    from the columnar :class:`~repro.pdns.table.PdnsTable` view of it.
    """

    def __init__(self) -> None:
        # (rrname, rtype, rdata) -> [first_seen, last_seen, count], the
        # aggregate that add_observation folds into.  ``None`` marks a
        # table-backed database whose dict has not been hydrated yet
        # (see :meth:`from_table`).
        self._rows: dict[tuple[str, RRType, str], list] | None = {}
        self._version = 0
        self._table: PdnsTable | None = None
        self._table_version = -1

    @classmethod
    def from_table(cls, table: PdnsTable) -> PassiveDNSDatabase:
        """Wrap a pre-built columnar table (segment-backed fast path).

        The table's row stream must already be canonical — written from
        :meth:`all_records` order — which every segment writer preserves.
        The aggregate dict hydrates lazily, only if new observations fold
        in or a derivation (:meth:`without_windows`) needs it.
        """
        database = cls()
        database._table = table
        database._table_version = database._version
        database._rows = None
        return database

    def _ensure_rows(self) -> None:
        """Hydrate the aggregate dict of a table-backed database."""
        if self._rows is not None:
            return
        table = self._table
        assert table is not None
        self._rows = {
            (record.rrname, record.rtype, record.rdata): [
                record.first_seen, record.last_seen, record.count
            ]
            for record in map(table.record, range(len(table)))
        }

    @property
    def table(self) -> PdnsTable:
        """The columnar view, built lazily and rebuilt after mutation.

        The table is constructed from :meth:`all_records` — the
        canonical ``(rrname, rtype, rdata)`` order — so its row ids and
        pool ids are a pure function of the aggregated content, stable
        across processes and safe to reference from cache entries.
        """
        if self._table is None or self._table_version != self._version:
            from repro.pdns.table import PdnsTable

            self._table = PdnsTable.from_records(self.all_records())
            self._table_version = self._version
        return self._table

    def add_observation(self, rrname: str, rtype: RRType, rdata: str, day: date) -> None:
        """Fold one observed resolution into the aggregate."""
        rrname = rrname.lower().rstrip(".")
        rdata = rdata.lower().rstrip(".") if rtype is RRType.NS else rdata
        key = (rrname, rtype, rdata)
        self._ensure_rows()
        self._version += 1
        row = self._rows.get(key)
        if row is None:
            self._rows[key] = [day, day, 1]
        else:
            if day < row[0]:
                row[0] = day
            if day > row[1]:
                row[1] = day
            row[2] += 1

    def _materialize(self, key: tuple[str, RRType, str]) -> PdnsRecord:
        first, last, count = self._rows[key]
        return PdnsRecord(key[0], key[1], key[2], first, last, count)

    # -- forward queries ------------------------------------------------------

    def query_name(
        self,
        rrname: str,
        rtype: RRType | None = None,
        window: DateInterval | None = None,
    ) -> list[PdnsRecord]:
        """All aggregated rows for an exact rrname, sorted
        ``(first_seen, rdata)``."""
        table = self.table
        rows = table.query_name_rows(rrname.lower().rstrip("."), rtype, window)
        return [table.record(row) for row in rows]

    def query_domain(
        self, domain: str, window: DateInterval | None = None
    ) -> list[PdnsRecord]:
        """All rows for any rrname under the registered domain, sorted
        ``(rrname, first_seen, rdata)``."""
        table = self.table
        rows = table.query_domain_rows(registered_domain(domain), window)
        return [table.record(row) for row in rows]

    def a_history(self, fqdn: str, window: DateInterval | None = None) -> list[PdnsRecord]:
        return self.query_name(fqdn, RRType.A, window)

    def ns_history(self, domain: str, window: DateInterval | None = None) -> list[PdnsRecord]:
        """NS rows observed for the registered domain."""
        return self.query_name(registered_domain(domain), RRType.NS, window)

    # -- inverse (pivot) queries ----------------------------------------------

    def query_rdata(
        self, rdata: str, rtype: RRType | None = None, window: DateInterval | None = None
    ) -> list[PdnsRecord]:
        """All rows whose rdata equals ``rdata`` (IP or NS hostname),
        sorted ``(rrname, first_seen)``.

        NS rdata is stored lowercased and dot-stripped, so the query
        matches that form for every rtype and, for any rtype other than
        NS, the verbatim value as well.
        """
        values = {rdata.lower().rstrip(".")}
        if rtype is not RRType.NS:
            values.add(rdata)
        table = self.table
        return [table.record(row) for row in table.query_rdata_rows(values, rtype, window)]

    def domains_resolving_to(self, ip: str, window: DateInterval | None = None) -> set[str]:
        """Registered domains with any name that resolved to ``ip``."""
        return {
            registered_domain(r.rrname)
            for r in self.query_rdata(ip, RRType.A, window)
        }

    def domains_delegated_to(self, ns_fqdn: str, window: DateInterval | None = None) -> set[str]:
        """Registered domains ever observed delegated to ``ns_fqdn``."""
        return {
            registered_domain(r.rrname)
            for r in self.query_rdata(ns_fqdn, RRType.NS, window)
        }

    def _insert_row(self, key: tuple[str, RRType, str], first: date, last: date, count: int) -> None:
        """Install one aggregated row directly."""
        self._version += 1
        self._rows[key] = [first, last, count]

    def without_windows(self, blackouts: list[DateInterval]) -> PassiveDNSDatabase:
        """Derive the database a sensor network dark during ``blackouts``
        would have aggregated.

        Rows wholly inside a blackout vanish; rows straddling one keep
        their visible span with ``first_seen``/``last_seen`` pulled out
        of the dark ranges and their count scaled to the visible days
        (observations inside a window were never received).  The closed
        intervals must all have an end date.
        """
        windows = [w for w in blackouts if w.end is not None]
        self._ensure_rows()
        derived = PassiveDNSDatabase()
        if not windows:
            for key, (first, last, count) in self._rows.items():
                derived._insert_row(key, first, last, count)
            return derived

        def covered(day: date) -> DateInterval | None:
            for window in windows:
                if window.contains(day):
                    return window
            return None

        for key, (first, last, count) in self._rows.items():
            new_first, new_last = first, last
            while (window := covered(new_first)) is not None and new_first <= last:
                new_first = window.end + timedelta(days=1)
            if new_first > last:
                continue  # the whole row fell inside blackouts
            while (window := covered(new_last)) is not None and new_last >= new_first:
                new_last = window.start - timedelta(days=1)
            if new_last < new_first:
                continue
            span = (last - first).days + 1
            visible = (new_last - new_first).days + 1
            for window in windows:
                clipped = window.clipped(new_first, new_last)
                if clipped is not None:
                    visible -= clipped.days
            visible = max(1, visible)
            derived._insert_row(key, new_first, new_last, max(1, count * visible // span))
        return derived

    def all_records(self) -> list[PdnsRecord]:
        """Every aggregated row, in (rrname, rtype, rdata) order."""
        if self._rows is None:
            # Table-backed: the row stream already is the canonical
            # order, so the walk needs no hydrated dicts.
            table = self._table
            return [table.record(row) for row in range(len(table))]
        keys = sorted(self._rows, key=lambda k: (k[0], k[1].value, k[2]))
        return [self._materialize(k) for k in keys]

    def __getstate__(self) -> dict:
        # The columnar view never travels: its row stream is canonical,
        # so a worker rebuilding it lazily interns identical ids — and
        # the payload stays one copy of the aggregates, not two.
        state = self.__dict__.copy()
        if state["_rows"] is not None:
            state["_table"] = None
            state["_table_version"] = -1
        return state

    def __len__(self) -> int:
        if self._rows is None:
            return len(self._table)
        return len(self._rows)
