"""Columnar struct-of-arrays storage for aggregated passive-DNS rows.

The paper's step 4 inspects shortlisted transients against Farsight
SIE-scale passive DNS — billions of ``(rrname, rrtype, rdata)``
aggregates.  :class:`PdnsTable` mirrors :class:`repro.scan.table.ScanTable`
for that channel: one typed-array column per field (first/last-seen
ordinals, observation counts, an rrtype code) plus first-seen-order
interned pools for the repeated strings (owner names, rdata), so pool
ids are a pure function of the row stream and safe to reference from
cache entries and worker results.  It is the only query path behind
:class:`~repro.pdns.database.PassiveDNSDatabase`.

Two CSR-style indexes sit on top of the columns:

* a per-owner-name index (``a_history``/``ns_history`` lookups), each
  name's rows pre-sorted by ``(first_seen, rdata, rrtype)``;
* a per-registered-domain index (``query_domain`` suffix walks), each
  base's rows pre-sorted by ``(rrname, first_seen, rdata, rrtype)``.

Owner names that have no well-formed registered domain (so the suffix
bucketing cannot place them) are kept aside in ``irregular_rows``.  A
suffix query that one of them matches, or whose base is a bare public
suffix (spanning many registered domains), walks the sorted owner-name
pool instead — same rows, same order.  The pivot's inverse lookups go
through an rdata → rows index built on first use.

Rows are materialized back into :class:`~repro.pdns.database.PdnsRecord`
dataclasses lazily and memoized, so repeated inspection queries touch
each row object at most once.
"""

from __future__ import annotations

from array import array
from datetime import date
from typing import TYPE_CHECKING, Iterable

from repro.dns.records import RRType
from repro.net.names import public_suffix, registered_domain
from repro.scan.table import _Interner

if TYPE_CHECKING:
    from repro.net.timeline import DateInterval
    from repro.pdns.database import PdnsRecord

#: Canonical rrtype code table: the ``rtype_code`` column indexes this
#: tuple, so codes are a pure function of the enum declaration order.
RRTYPES: tuple[RRType, ...] = tuple(RRType)
_RT_CODE = {rtype: code for code, rtype in enumerate(RRTYPES)}

#: Per-row columns, in declaration order (all aligned, one entry per row).
_ROW_COLUMNS = ("rrname_id", "rtype_code", "rdata_id", "first_ord", "last_ord", "count")

#: Intern pools shared between a table and everything derived from it.
_POOLS = ("rrnames", "rdatas")

#: id columns and the pools they index, for ``select`` re-interning.
_ID_COLUMNS = (("rrname_id", "rrnames"), ("rdata_id", "rdatas"))


class PdnsTable:
    """Struct-of-arrays passive-DNS store with interned value pools."""

    def __init__(self) -> None:
        # -- per-row columns -------------------------------------------------
        self.rrname_id = array("I")
        self.rtype_code = array("B")
        self.rdata_id = array("I")
        self.first_ord = array("i")
        self.last_ord = array("i")
        self.count = array("Q")
        # -- interned pools (id -> value, first-seen order) ------------------
        self.rrnames: list[str] = []
        self.rdatas: list[str] = []
        # -- per-owner-name CSR index ----------------------------------------
        self.names: tuple[str, ...] = ()
        self.name_rows = array("I")
        self.name_off = array("I", [0])
        # -- per-registered-domain CSR index ---------------------------------
        self.domains: tuple[str, ...] = ()
        self.dom_rows = array("I")
        self.dom_off = array("I", [0])
        #: Rows whose owner name has no parseable registered domain;
        #: suffix queries they match walk the name pool instead.
        self.irregular_rows: tuple[int, ...] = ()
        # -- lazy decode state (never pickled) -------------------------------
        self._name_index: dict[str, int] = {}
        self._dom_index: dict[str, int] = {}
        self._rec_cache: list[PdnsRecord | None] = []
        self._row_index: dict[tuple[str, RRType, str], int] | None = None
        self._rdata_index: dict[str, list[int]] | None = None
        self._date_cache: dict[int, date] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[PdnsRecord]) -> PdnsTable:
        """Build from a record stream (canonically: ``all_records()``
        order, which makes pool ids a pure function of content)."""
        table = cls()
        builder = _PdnsTableBuilder(table)
        for record in records:
            builder.append_record(record)
        builder.finish()
        return table

    def __len__(self) -> int:
        return len(self.first_ord)

    # -- row materialization -------------------------------------------------

    def record(self, row: int) -> PdnsRecord:
        """The row as a :class:`PdnsRecord`, memoized per row."""
        cached = self._rec_cache[row]
        if cached is None:
            from repro.pdns.database import PdnsRecord

            cached = PdnsRecord(
                rrname=self.rrnames[self.rrname_id[row]],
                rtype=RRTYPES[self.rtype_code[row]],
                rdata=self.rdatas[self.rdata_id[row]],
                first_seen=self.interned_date(self.first_ord[row]),
                last_seen=self.interned_date(self.last_ord[row]),
                count=self.count[row],
            )
            self._rec_cache[row] = cached
        return cached

    def interned_date(self, ordinal: int) -> date:
        cached = self._date_cache.get(ordinal)
        if cached is None:
            cached = date.fromordinal(ordinal)
            self._date_cache[ordinal] = cached
        return cached

    def row_of(self, rrname: str, rtype: RRType, rdata: str) -> int:
        """The row id of one aggregate — the wire-form reference used by
        the inspection stage's encoded evidence."""
        index = self._row_index
        if index is None:
            index = {}
            rrnames, rdatas = self.rrnames, self.rdatas
            for row in range(len(self.first_ord)):
                key = (
                    rrnames[self.rrname_id[row]],
                    RRTYPES[self.rtype_code[row]],
                    rdatas[self.rdata_id[row]],
                )
                index[key] = row
            self._row_index = index
        return index[(rrname, rtype, rdata)]

    # -- query kernels (row ids, in each query's documented order) -----------

    def _window_filter(
        self, rows: Iterable[int], window: DateInterval | None
    ) -> list[int]:
        if window is None:
            return list(rows)
        start = window.start.toordinal()
        end = window.end.toordinal() if window.end is not None else None
        first, last = self.first_ord, self.last_ord
        return [
            row
            for row in rows
            if last[row] >= start and (end is None or first[row] <= end)
        ]

    def query_name_rows(
        self,
        rrname: str,
        rtype: RRType | None = None,
        window: DateInterval | None = None,
    ) -> list[int]:
        """Rows for one owner name, sorted ``(first_seen, rdata)``."""
        index = self._name_index.get(rrname)
        if index is None:
            return []
        lo, hi = self.name_off[index], self.name_off[index + 1]
        bucket = self.name_rows[lo:hi]
        if rtype is not None:
            code = _RT_CODE[rtype]
            rtypes = self.rtype_code
            bucket = [row for row in bucket if rtypes[row] == code]
        return self._window_filter(bucket, window)

    def query_domain_rows(
        self, base: str, window: DateInterval | None = None
    ) -> list[int]:
        """Rows for every owner name equal to or under ``base`` (a
        registered domain or a bare public suffix), sorted
        ``(rrname, first_seen, rdata)``."""
        suffix = "." + base
        rrnames, rrname_id = self.rrnames, self.rrname_id
        if public_suffix(base) != base and not any(
            rrnames[rrname_id[row]] == base or rrnames[rrname_id[row]].endswith(suffix)
            for row in self.irregular_rows
        ):
            index = self._dom_index.get(base)
            if index is None:
                return []
            lo, hi = self.dom_off[index], self.dom_off[index + 1]
            return self._window_filter(self.dom_rows[lo:hi], window)
        # A bare public suffix spans many registered-domain buckets, and
        # an irregular owner name sits in none: walk the sorted name pool,
        # whose per-name buckets concatenate in the same order.
        rows: list[int] = []
        for index, name in enumerate(self.names):
            if name == base or name.endswith(suffix):
                rows.extend(self.name_rows[self.name_off[index]:self.name_off[index + 1]])
        return self._window_filter(rows, window)

    def query_rdata_rows(
        self,
        values: Iterable[str],
        rtype: RRType | None = None,
        window: DateInterval | None = None,
    ) -> list[int]:
        """Rows whose rdata is any of ``values``, sorted
        ``(rrname, first_seen, rdata, rrtype)``."""
        index = self._rdata_index
        if index is None:
            # Built on the first inverse (pivot) lookup; forward queries
            # never pay for it.
            by_id: dict[int, list[int]] = {}
            for row, ident in enumerate(self.rdata_id):
                by_id.setdefault(ident, []).append(row)
            rdatas = self.rdatas
            index = {rdatas[ident]: bucket for ident, bucket in by_id.items()}
            self._rdata_index = index
        rows = [row for value in values for row in index.get(value, ())]
        if rtype is not None:
            code = _RT_CODE[rtype]
            rtypes = self.rtype_code
            rows = [row for row in rows if rtypes[row] == code]
        rows = self._window_filter(rows, window)
        rrnames, rrname_id = self.rrnames, self.rrname_id
        rdatas, rdata_id = self.rdatas, self.rdata_id
        first, rtypes = self.first_ord, self.rtype_code
        rows.sort(
            key=lambda r: (
                rrnames[rrname_id[r]], first[r], rdatas[rdata_id[r]], rtypes[r]
            )
        )
        return rows

    # -- canonical walks -----------------------------------------------------

    def row_dicts(self) -> Iterable[dict]:
        """Canonical value-space walk of every row, in row order."""
        for row in range(len(self.first_ord)):
            yield {
                "rrname": self.rrnames[self.rrname_id[row]],
                "rtype": RRTYPES[self.rtype_code[row]].value,
                "rdata": self.rdatas[self.rdata_id[row]],
                "first": self.first_ord[row],
                "last": self.last_ord[row],
                "count": self.count[row],
            }

    def column_bytes(self) -> int:
        """Bytes held by the typed-array columns (pools excluded)."""
        return sum(
            len(getattr(self, name)) * getattr(self, name).itemsize
            for name in _ROW_COLUMNS
        ) + sum(
            len(arr) * arr.itemsize
            for arr in (self.name_rows, self.name_off, self.dom_rows, self.dom_off)
        )

    # -- derived tables ------------------------------------------------------

    def select(self, rows: Iterable[int]) -> PdnsTable:
        """A new table holding only ``rows``, pools re-interned.

        Ids are re-assigned in first-seen order over the surviving rows,
        so a derived (fault-degraded) table interns exactly like a table
        freshly built from the surviving records — the invariant that
        keeps pool ids safe to ship between processes and cache entries.
        """
        rows = list(rows)
        derived = PdnsTable()
        derived.rtype_code = array("B", (self.rtype_code[r] for r in rows))
        derived.first_ord = array("i", (self.first_ord[r] for r in rows))
        derived.last_ord = array("i", (self.last_ord[r] for r in rows))
        derived.count = array("Q", (self.count[r] for r in rows))
        for column_name, pool_name in _ID_COLUMNS:
            column = getattr(self, column_name)
            pool = getattr(self, pool_name)
            interner = _Interner()
            setattr(
                derived,
                column_name,
                array("I", (interner.intern(pool[column[r]]) for r in rows)),
            )
            setattr(derived, pool_name, interner.values)
        derived._rec_cache = [self._rec_cache[r] for r in rows]
        derived._build_index()
        return derived

    # -- index construction --------------------------------------------------

    def _build_index(self) -> None:
        n_rows = len(self.first_ord)
        if not self._rec_cache:
            self._rec_cache = [None] * n_rows
        # String-sort ranks, computed once per pool value: per-bucket row
        # sorts compare small ints instead of strings.
        name_rank = {
            ident: rank
            for rank, ident in enumerate(
                sorted(range(len(self.rrnames)), key=self.rrnames.__getitem__)
            )
        }
        rdata_rank = {
            ident: rank
            for rank, ident in enumerate(
                sorted(range(len(self.rdatas)), key=self.rdatas.__getitem__)
            )
        }
        # Registered domain of each distinct owner name (None: irregular).
        base_of: dict[int, str | None] = {}
        for ident, rrname in enumerate(self.rrnames):
            try:
                base_of[ident] = registered_domain(rrname)
            except ValueError:
                base_of[ident] = None

        name_buckets: dict[int, list[int]] = {}
        dom_buckets: dict[str, list[int]] = {}
        irregular: list[int] = []
        rrname_id = self.rrname_id
        for row in range(n_rows):
            ident = rrname_id[row]
            name_buckets.setdefault(ident, []).append(row)
            base = base_of[ident]
            if base is None:
                irregular.append(row)
            else:
                dom_buckets.setdefault(base, []).append(row)
        self.irregular_rows = tuple(irregular)

        first = self.first_ord
        rdata_id = self.rdata_id
        rtypes = self.rtype_code

        self.names = tuple(
            sorted(
                (self.rrnames[ident] for ident in name_buckets),
            )
        )
        self._name_index = {name: i for i, name in enumerate(self.names)}
        name_rows: list[int] = []
        name_off = array("I", [0])
        by_name = {self.rrnames[ident]: bucket for ident, bucket in name_buckets.items()}
        for name in self.names:
            bucket = by_name[name]
            bucket.sort(
                key=lambda r: (first[r], rdata_rank[rdata_id[r]], rtypes[r])
            )
            name_rows.extend(bucket)
            name_off.append(len(name_rows))
        self.name_rows = array("I", name_rows)
        self.name_off = name_off

        self.domains = tuple(sorted(dom_buckets))
        self._dom_index = {base: i for i, base in enumerate(self.domains)}
        dom_rows: list[int] = []
        dom_off = array("I", [0])
        for base in self.domains:
            bucket = dom_buckets[base]
            bucket.sort(
                key=lambda r: (
                    name_rank[rrname_id[r]],
                    first[r],
                    rdata_rank[rdata_id[r]],
                    rtypes[r],
                )
            )
            dom_rows.extend(bucket)
            dom_off.append(len(dom_rows))
        self.dom_rows = array("I", dom_rows)
        self.dom_off = dom_off

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_name_index"] = None
        state["_dom_index"] = None
        state["_rec_cache"] = None
        state["_row_index"] = None
        state["_rdata_index"] = None
        state["_date_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._name_index = {name: i for i, name in enumerate(self.names)}
        self._dom_index = {base: i for i, base in enumerate(self.domains)}
        self._rec_cache = [None] * len(self.first_ord)
        self._row_index = None
        self._rdata_index = None
        self._date_cache = {}


class _PdnsTableBuilder:
    """Append-only builder: rows in, table with pools + indexes out."""

    def __init__(self, table: PdnsTable) -> None:
        self.table = table
        self._rrnames = _Interner()
        self._rdatas = _Interner()

    def append_record(self, record: PdnsRecord) -> None:
        self.append_row(
            record.rrname,
            record.rtype,
            record.rdata,
            record.first_seen.toordinal(),
            record.last_seen.toordinal(),
            record.count,
        )
        self.table._rec_cache.append(record)

    def append_row(
        self,
        rrname: str,
        rtype: RRType,
        rdata: str,
        first_ord: int,
        last_ord: int,
        count: int,
    ) -> None:
        table = self.table
        table.rrname_id.append(self._rrnames.intern(rrname))
        table.rtype_code.append(_RT_CODE[rtype])
        table.rdata_id.append(self._rdatas.intern(rdata))
        table.first_ord.append(first_ord)
        table.last_ord.append(last_ord)
        table.count.append(count)

    def finish(self) -> None:
        table = self.table
        table.rrnames = self._rrnames.values
        table.rdatas = self._rdatas.values
        table._build_index()
