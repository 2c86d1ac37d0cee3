"""Columnar struct-of-arrays storage for annotated scan records.

The paper's step 1 walks 71M-IP weekly TLS scans; at that volume a
Python object per observation is the bottleneck — for memory, for the
pickle payloads the spawn-platform process pool ships, and for the
per-period re-filtering the row-at-a-time deployment kernel did.  A
:class:`ScanTable` stores one typed-array *column* per field instead of
one :class:`~repro.scan.annotate.AnnotatedScanRecord` per row:

* plain value columns — scan-date ordinals — live in ``array`` typed
  arrays (one machine word per row);
* every repeated value — IP addresses (with their IPv4 integers),
  certificate fingerprints (with their
  :class:`~repro.tls.certificate.Certificate` objects), ASNs, country
  codes, port sets, SAN-name sets and base-domain sets — is *interned*
  once into a shared pool and referenced by a 4-byte id per row.

On top of the columns sits a CSR-style per-domain index: one
concatenated row-index array plus offsets, each domain's rows pre-sorted
by ``(scan_date, ip)`` with a parallel date-ordinal array, so "this
domain's records inside this period" is a ``bisect``-found contiguous
slice rather than a per-period linear filter — the access pattern the
deployment-map kernel clusters over directly.

Row objects still exist where the public API hands them out
(``records_for``, shortlist and inspection evidence): the table
materializes :class:`AnnotatedScanRecord` dataclasses *lazily* from the
columns and memoizes them, and a table built ``from_records`` seeds that
memo with the caller's own objects, so the row view is identical to what
the row-at-a-time store produced.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from datetime import date
from typing import Any, Iterable, Iterator, Sequence

from repro.net.ipv4 import ip_to_int
from repro.scan.annotate import AnnotatedScanRecord
from repro.tls.certificate import Certificate

#: Flag bits of the per-row ``flags`` column.
_TRUSTED = 1
_SENSITIVE = 2

#: Per-row columns, in declaration order (all aligned, one entry per row).
_ROW_COLUMNS = (
    "date_ord", "ip_id", "asn_id", "cert_id", "country_id",
    "ports_id", "names_id", "bases_id", "flags",
)

#: Intern pools shared between a table and everything derived from it.
_POOLS = (
    "ips", "ip_ints", "asns", "cert_fps", "certs", "countries",
    "port_sets", "name_sets", "base_sets",
)


class _Interner:
    """First-seen-order value pool: ``value -> small int id``.

    Ids are assigned in first-appearance order over the row stream, so
    two tables built from byte-identical record streams intern every
    value to the same id — which is what lets cache entries and worker
    results reference pool ids instead of repeating the values.
    """

    __slots__ = ("values", "_ids")

    def __init__(self) -> None:
        self.values: list[Any] = []
        self._ids: dict[Any, int] = {}

    def intern(self, value: Any) -> int:
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self.values)
            self._ids[value] = ident
            self.values.append(value)
        return ident


def _best_effort_ip_int(ip: str) -> int:
    """The IPv4 integer of ``ip``, or 0 when it is not a dotted quad.

    The integer column is a sort/cluster accelerator, never an identity:
    row identity always goes through the interned string pool, so a
    non-canonical address only loses the fast-path int, nothing else.
    """
    try:
        return ip_to_int(ip)
    except ValueError:
        return 0


class ScanTable:
    """Struct-of-arrays store of annotated scan rows with a domain index."""

    def __init__(self) -> None:
        # -- per-row columns (aligned, one entry per record) ------------------
        self.date_ord = array("i")    # scan-date ordinal
        self.ip_id = array("I")       # -> ips / ip_ints pools
        self.asn_id = array("I")      # -> asns pool
        self.cert_id = array("I")     # -> certs / cert_fps pools
        self.country_id = array("I")  # -> countries pool
        self.ports_id = array("I")    # -> port_sets pool
        self.names_id = array("I")    # -> name_sets pool
        self.bases_id = array("I")    # -> base_sets pool
        self.flags = array("B")       # _TRUSTED | _SENSITIVE bits
        # -- shared intern pools ----------------------------------------------
        self.ips: list[str] = []
        self.ip_ints = array("I")     # IPv4 int per ips entry (0 if unparseable)
        self.asns: list[int] = []
        self.cert_fps: list[str] = []
        self.certs: list[Certificate] = []
        self.countries: list[str] = []
        self.port_sets: list[tuple[int, ...]] = []
        self.name_sets: list[tuple[str, ...]] = []
        self.base_sets: list[tuple[str, ...]] = []
        # -- CSR per-domain index (built by _build_index) ---------------------
        self.domains: tuple[str, ...] = ()
        self._dom_index: dict[str, int] = {}
        self.csr_rows = array("I")    # row indices, per domain, (date, ip)-sorted
        self.csr_dates = array("i")   # date ordinal per csr_rows entry (bisect key)
        self.csr_off = array("I", [0])
        self.dom_dates = array("i")   # per domain: unique sorted date ordinals
        self.dom_dates_off = array("I", [0])
        # -- lazy row materialization -----------------------------------------
        self._rec_cache: list[AnnotatedScanRecord | None] = []
        self._domain_records: dict[str, tuple[AnnotatedScanRecord, ...]] = {}
        # -- decode memos ------------------------------------------------------
        # Stable deployments repeat the same value sets every scan date,
        # so decoded frozensets (and date objects) are interned per
        # (pool, ids) key instead of rebuilt per deployment group.
        self._set_cache: dict[tuple[str, tuple[int, ...]], frozenset] = {}
        self._singleton_sets: dict[str, list[frozenset | None]] = {}
        self._date_cache: dict[int, date] = {}
        # Canonical id-tuple memo shared by the encode kernel: a stable
        # deployment re-emits the same content tuple every scan date, and
        # handing back one shared object lets pickle memoize repeats in
        # worker results and cache entries instead of re-serializing.
        self.id_tuples: dict[tuple[int, ...], tuple[int, ...]] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[AnnotatedScanRecord]) -> ScanTable:
        """Build the columns from row objects, keeping them as the row view."""
        table = cls()
        builder = _TableBuilder(table)
        rows = list(records)
        for record in rows:
            builder.append_record(record)
        # The caller's objects *are* the materialized rows: the row API
        # returns them unchanged, so from_records costs no object churn.
        table._rec_cache = rows
        builder.finish()
        return table

    @classmethod
    def build(cls) -> "_TableBuilder":
        """An incremental builder (used by the annotator and the loader)."""
        return _TableBuilder(cls())

    # -- size ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.date_ord)

    # -- row materialization ---------------------------------------------------

    def record(self, row: int) -> AnnotatedScanRecord:
        """The row as an :class:`AnnotatedScanRecord`, memoized per row."""
        record = self._rec_cache[row]
        if record is None:
            record = AnnotatedScanRecord(
                scan_date=self.interned_date(self.date_ord[row]),
                ip=self.ips[self.ip_id[row]],
                ports=self.port_sets[self.ports_id[row]],
                asn=self.asns[self.asn_id[row]],
                country=self.countries[self.country_id[row]],
                certificate=self.certs[self.cert_id[row]],
                trusted=bool(self.flags[row] & _TRUSTED),
                sensitive=bool(self.flags[row] & _SENSITIVE),
                names=self.name_sets[self.names_id[row]],
                base_domains=self.base_sets[self.bases_id[row]],
            )
            self._rec_cache[row] = record
        return record

    def records(self) -> list[AnnotatedScanRecord]:
        """Every row, in original dataset order."""
        return [self.record(row) for row in range(len(self))]

    def records_for(self, domain: str) -> tuple[AnnotatedScanRecord, ...]:
        """The domain's rows, (date, ip)-sorted, as a memoized tuple view."""
        view = self._domain_records.get(domain)
        if view is None:
            lo, hi = self.domain_slice(domain)
            view = tuple(self.record(self.csr_rows[i]) for i in range(lo, hi))
            self._domain_records[domain] = view
        return view

    def interned_date(self, ordinal: int) -> date:
        """The ordinal's :class:`date`, one object per distinct ordinal."""
        value = self._date_cache.get(ordinal)
        if value is None:
            value = date.fromordinal(ordinal)
            self._date_cache[ordinal] = value
        return value

    def interned_set(self, pool: str, ids: tuple[int, ...]) -> frozenset:
        """The frozenset of ``pool`` values for ``ids``, memoized.

        The decode hot path: a stable deployment resolves the same id
        tuple once per *content*, not once per (domain, date) cell.
        Singletons — the common case for certs and countries — memoize
        in a per-pool list indexed by id, skipping the tuple-key hash.
        """
        if len(ids) == 1:
            sets = self._singleton_sets.get(pool)
            if sets is None:
                sets = self._singleton_sets[pool] = []
            i = ids[0]
            if i < len(sets):
                value = sets[i]
                if value is not None:
                    return value
            else:
                sets.extend([None] * (i + 1 - len(sets)))
            value = frozenset((getattr(self, pool)[i],))
            sets[i] = value
            return value
        key = (pool, ids)
        value = self._set_cache.get(key)
        if value is None:
            values = getattr(self, pool)
            value = frozenset(values[i] for i in ids)
            self._set_cache[key] = value
        return value

    def trusted(self, row: int) -> bool:
        """The row's browser-trust flag, read straight off the column."""
        return bool(self.flags[row] & _TRUSTED)

    def sensitive(self, row: int) -> bool:
        """The row's sensitive-name flag, read straight off the column."""
        return bool(self.flags[row] & _SENSITIVE)

    # -- the CSR index ---------------------------------------------------------

    def domain_index(self, domain: str) -> int | None:
        """The domain's ordinal into ``domains``/``csr_off``, or None.

        ``domains[i]`` and CSR position ``i`` name the same domain, so
        shard workers that walk an ordinal range can index the CSR
        directly — no per-domain string lookup (and, on segment-backed
        tables, no pool pages faulted for domains they only skip over).
        """
        return self._dom_index.get(domain)

    def domain_slice(self, domain: str) -> tuple[int, int]:
        """The domain's ``[lo, hi)`` range into the CSR arrays."""
        index = self._dom_index.get(domain)
        if index is None:
            return (0, 0)
        return self.csr_off[index], self.csr_off[index + 1]

    def period_slice(self, domain: str, start: date, end: date) -> tuple[int, int]:
        """CSR sub-range of the domain's rows with ``start <= date <= end``.

        Rows are date-sorted within the domain, so the period is one
        bisect-found contiguous slice of the CSR arrays.
        """
        index = self._dom_index.get(domain)
        if index is None:
            return (0, 0)
        return self.period_slice_at(index, start, end)

    def period_slice_at(self, index: int, start: date, end: date) -> tuple[int, int]:
        """:meth:`period_slice` by domain ordinal instead of name."""
        lo, hi = self.csr_off[index], self.csr_off[index + 1]
        if lo == hi:
            return (lo, lo)
        left = bisect_left(self.csr_dates, start.toordinal(), lo, hi)
        right = bisect_right(self.csr_dates, end.toordinal(), lo, hi)
        return (left, right)

    def distinct_dates_in(self, domain: str, start: date, end: date) -> int:
        """How many distinct scan dates show the domain inside the window."""
        index = self._dom_index.get(domain)
        if index is None:
            return 0
        lo, hi = self.dom_dates_off[index], self.dom_dates_off[index + 1]
        left = bisect_left(self.dom_dates, start.toordinal(), lo, hi)
        right = bisect_right(self.dom_dates, end.toordinal(), lo, hi)
        return right - left

    def _build_index(self) -> None:
        """(Re)build the CSR per-domain index over the current columns."""
        if not self._rec_cache:
            self._rec_cache = [None] * len(self.date_ord)
        # Rows of a domain sort by (scan date, ip *string*) — the order
        # the row-at-a-time dataset produced, preserved bit for bit so
        # everything downstream (records_for, evidence, golden reports)
        # is unchanged.  The string ranks are computed once per unique
        # address, not once per row.
        ip_rank = array("I", bytes(len(self.ips) * array("I").itemsize))
        for rank, ip_id in enumerate(
            sorted(range(len(self.ips)), key=self.ips.__getitem__)
        ):
            ip_rank[ip_id] = rank
        buckets: dict[str, list[int]] = {}
        bases_id = self.bases_id
        base_sets = self.base_sets
        for row in range(len(bases_id)):
            for base in base_sets[bases_id[row]]:
                bucket = buckets.get(base)
                if bucket is None:
                    buckets[base] = [row]
                else:
                    bucket.append(row)
        self.domains = tuple(sorted(buckets))
        self._dom_index = {d: i for i, d in enumerate(self.domains)}
        date_ord = self.date_ord
        ip_id_col = self.ip_id
        csr_rows = array("I")
        csr_dates = array("i")
        csr_off = array("I", [0])
        dom_dates = array("i")
        dom_dates_off = array("I", [0])
        for domain in self.domains:
            rows = buckets[domain]
            rows.sort(key=lambda r: (date_ord[r], ip_rank[ip_id_col[r]]))
            csr_rows.extend(rows)
            previous = None
            for row in rows:
                ordinal = date_ord[row]
                csr_dates.append(ordinal)
                if ordinal != previous:
                    dom_dates.append(ordinal)
                    previous = ordinal
            csr_off.append(len(csr_rows))
            dom_dates_off.append(len(dom_dates))
        self.csr_rows = csr_rows
        self.csr_dates = csr_dates
        self.csr_off = csr_off
        self.dom_dates = dom_dates
        self.dom_dates_off = dom_dates_off

    # -- derivation ------------------------------------------------------------

    #: id column -> the pools it indexes (parallel per-id side tables).
    _ID_COLUMNS = (
        ("ip_id", ("ips", "ip_ints")),
        ("asn_id", ("asns",)),
        ("cert_id", ("cert_fps", "certs")),
        ("country_id", ("countries",)),
        ("ports_id", ("port_sets",)),
        ("names_id", ("name_sets",)),
        ("bases_id", ("base_sets",)),
    )

    def select(self, rows: Sequence[int]) -> ScanTable:
        """A new table holding only ``rows`` (in the given order).

        Only the per-row columns and the CSR index are rebuilt — no
        record objects, which is what makes fault degradation a column
        selection instead of a record rebuild.  The pools are
        *re-interned* in first-seen order over the surviving rows: every
        table's ids are thereby a pure function of its own row stream
        (what the content digest covers), so id-referencing cache
        entries stay resolvable across processes.  Values themselves are
        shared — certificates stay one object per fingerprint.
        """
        derived = ScanTable()
        derived.date_ord = array("i", (self.date_ord[row] for row in rows))
        derived.flags = array("B", (self.flags[row] for row in rows))
        for column_name, pool_names in self._ID_COLUMNS:
            source = getattr(self, column_name)
            pools = [getattr(self, name) for name in pool_names]
            remap: dict[int, int] = {}
            column = array("I")
            new_pools: list[list] = [[] for _ in pools]
            for row in rows:
                old = source[row]
                new = remap.get(old)
                if new is None:
                    new = len(remap)
                    remap[old] = new
                    for pool, new_pool in zip(pools, new_pools):
                        new_pool.append(pool[old])
                column.append(new)
            setattr(derived, column_name, column)
            for name, new_pool in zip(pool_names, new_pools):
                if name == "ip_ints":
                    setattr(derived, name, array("I", new_pool))
                else:
                    setattr(derived, name, new_pool)
        derived._rec_cache = [self._rec_cache[row] for row in rows]
        derived._build_index()
        return derived

    # -- canonical row walk ----------------------------------------------------

    def row_dicts(self, start: int = 0) -> Iterator[dict[str, Any]]:
        """Canonical per-row dicts in dataset order (digest/export walk).

        Matches the shape :mod:`repro.cache.fingerprint` feeds its
        hasher, built straight from the columns — no record objects are
        materialized.  ``start`` begins the walk at that absolute row,
        which is how the epoch overlay re-digests only the rows a delta
        appended instead of the whole dataset.
        """
        for row in range(start, len(self)):
            yield {
                "d": date.fromordinal(self.date_ord[row]).isoformat(),
                "ip": self.ips[self.ip_id[row]],
                "ports": list(self.port_sets[self.ports_id[row]]),
                "asn": self.asns[self.asn_id[row]],
                "cc": self.countries[self.country_id[row]],
                "trusted": bool(self.flags[row] & _TRUSTED),
                "sensitive": bool(self.flags[row] & _SENSITIVE),
                "names": list(self.name_sets[self.names_id[row]]),
                "base": list(self.base_sets[self.bases_id[row]]),
                "cert": self.cert_fps[self.cert_id[row]],
            }

    def column_bytes(self) -> int:
        """Approximate resident bytes of the typed-array columns."""
        total = 0
        for name in _ROW_COLUMNS + (
            "csr_rows", "csr_dates", "csr_off", "dom_dates",
            "dom_dates_off", "ip_ints",
        ):
            column = getattr(self, name)
            total += column.itemsize * len(column)
        return total

    # -- pickling --------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """Ship columns and pools; drop every lazily materialized row.

        This is the fork-CoW / spawn-initializer payload of the process
        backends: typed arrays pickle as flat bytes and every repeated
        string or certificate travels exactly once, instead of one
        object graph per record.
        """
        state = self.__dict__.copy()
        state["_rec_cache"] = None
        state["_domain_records"] = None
        state["_dom_index"] = None  # rebuilt from ``domains`` on load
        state["_set_cache"] = None
        state["_singleton_sets"] = None
        state["_date_cache"] = None
        state["id_tuples"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._rec_cache = [None] * len(self.date_ord)
        self._domain_records = {}
        self._dom_index = {d: i for i, d in enumerate(self.domains)}
        self._set_cache = {}
        self._singleton_sets = {}
        self._date_cache = {}
        self.id_tuples = {}


class _TableBuilder:
    """Appends rows to a fresh :class:`ScanTable`, interning as it goes."""

    def __init__(self, table: ScanTable) -> None:
        self.table = table
        self._ips = _Interner()
        self._asns = _Interner()
        self._certs = _Interner()
        self._countries = _Interner()
        self._ports = _Interner()
        self._names = _Interner()
        self._bases = _Interner()

    def append_record(self, record: AnnotatedScanRecord) -> None:
        self.append_row(
            record.scan_date.toordinal(),
            record.ip,
            record.asn,
            record.certificate,
            record.country,
            record.ports,
            record.names,
            record.base_domains,
            record.trusted,
            record.sensitive,
        )

    def append_row(
        self,
        date_ordinal: int,
        ip: str,
        asn: int,
        certificate: Certificate,
        country: str,
        ports: tuple[int, ...],
        names: tuple[str, ...],
        base_domains: tuple[str, ...],
        trusted: bool,
        sensitive: bool,
    ) -> None:
        table = self.table
        table.date_ord.append(date_ordinal)
        ip_id = self._ips.intern(ip)
        if ip_id == len(table.ip_ints):
            table.ip_ints.append(_best_effort_ip_int(ip))
        table.ip_id.append(ip_id)
        table.asn_id.append(self._asns.intern(asn))
        cert_id = self._certs.intern(certificate.fingerprint)
        if cert_id == len(table.certs):
            table.certs.append(certificate)
        table.cert_id.append(cert_id)
        table.country_id.append(self._countries.intern(country))
        table.ports_id.append(self._ports.intern(ports))
        table.names_id.append(self._names.intern(names))
        table.bases_id.append(self._bases.intern(base_domains))
        table.flags.append(
            (_TRUSTED if trusted else 0) | (_SENSITIVE if sensitive else 0)
        )

    def finish(self) -> ScanTable:
        """Adopt the pools and build the domain index."""
        table = self.table
        table.ips = self._ips.values
        table.asns = self._asns.values
        table.cert_fps = self._certs.values
        table.countries = self._countries.values
        table.port_sets = self._ports.values
        table.name_sets = self._names.values
        table.base_sets = self._bases.values
        table._build_index()
        return table
