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

#: Value-keyed pools and the builder interner filling each (``ip_ints``
#: rides ``ips`` and ``certs`` rides ``cert_fps``, id for id).
_INTERNED = (
    ("ips", "_ips"),
    ("asns", "_asns"),
    ("cert_fps", "_certs"),
    ("countries", "_countries"),
    ("port_sets", "_ports"),
    ("name_sets", "_names"),
    ("base_sets", "_bases"),
)

#: The pools the content digest covers, each with its segment encoding
#: (see :func:`repro.cache.fingerprint.block_digests`).  ``ip_ints`` and
#: ``certs`` are not listed: they ride ``ips`` and ``cert_fps`` id for id.
_DIGEST_POOLS = (
    ("ips", "str"),
    ("asns", "int"),
    ("cert_fps", "str"),
    ("countries", "str"),
    ("port_sets", "tuple_int"),
    ("name_sets", "tuple_str"),
    ("base_sets", "tuple_str"),
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

    #: What the content digest hashes: every per-row column and pool.
    digest_columns = _ROW_COLUMNS
    digest_pools = _DIGEST_POOLS

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
        self._rec_cache: dict[int, AnnotatedScanRecord] = {}
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
        # Value -> id lookups per interned pool (see ``pool_index``).
        self._pool_index: dict[str, Any] = {}

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
        table._rec_cache = dict(enumerate(rows))
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
        """The row as an :class:`AnnotatedScanRecord`, memoized per row
        (the memo holds the rows built, not a slot per row)."""
        record = self._rec_cache.get(row)
        if record is None:
            # Sparse reads: a few rows of a segment-backed or overlay
            # table read only the chunks holding them.
            column = self.sparse_column
            flags = column("flags")[row]
            record = AnnotatedScanRecord(
                scan_date=self.interned_date(column("date_ord")[row]),
                ip=self.ips[column("ip_id")[row]],
                ports=self.port_sets[column("ports_id")[row]],
                asn=self.asns[column("asn_id")[row]],
                country=self.countries[column("country_id")[row]],
                certificate=self.certs[column("cert_id")[row]],
                trusted=bool(flags & _TRUSTED),
                sensitive=bool(flags & _SENSITIVE),
                names=self.name_sets[column("names_id")[row]],
                base_domains=self.base_sets[column("bases_id")[row]],
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
            view = tuple(map(self.record, self.domain_rows(domain)[0]))
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

    def pool_index(self, name: str):
        """A ``dict.get``-style value -> id lookup over an interned pool.

        It bisects the pool through its sorted order (sorted once here;
        a segment stores it), so an epoch overlay interns its delta's
        values without decoding the pool.  Memoized per pool.
        """
        index = self._pool_index.get(name)
        if index is None:
            from repro.segments.pools import SortedPoolIndex

            index = SortedPoolIndex(getattr(self, name), self._pool_order(name))
            self._pool_index[name] = index
        return index

    def _pool_order(self, name: str):
        from repro.segments.pools import sorted_order

        return sorted_order(getattr(self, name))

    def sparse_column(self, name: str):
        """Column ``name`` for reads of a few items: the column itself
        here; a segment-backed table verifies only the chunks read, and
        an overlay reads a per-row column's root rows in place."""
        return getattr(self, name)

    def trusted(self, row: int) -> bool:
        """The row's browser-trust flag, read straight off the column."""
        return bool(self.sparse_column("flags")[row] & _TRUSTED)

    def sensitive(self, row: int) -> bool:
        """The row's sensitive-name flag, read straight off the column."""
        return bool(self.sparse_column("flags")[row] & _SENSITIVE)

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

    def domain_rows(self, domain: str) -> tuple[list[int], list[int]]:
        """The domain's CSR run: its row ids and their date ordinals,
        ``(date, ip)``-sorted, read sparsely (see :meth:`subset`)."""
        index = self.domain_index(domain)
        if index is None:
            return [], []
        offsets = self.sparse_column("csr_off")
        lo, hi = offsets[index], offsets[index + 1]
        return (
            list(self.sparse_column("csr_rows")[lo:hi]),
            list(self.sparse_column("csr_dates")[lo:hi]),
        )

    def subset(self, domains: Iterable[str]) -> ScanTable:
        """A table of just ``domains``' rows that shares this table's
        pools, so every interned id is unchanged.

        A domain's deployment encoding reads only its own rows, their
        pooled values and the scan calendar, so it encodes identically
        over the subset.  The rows are read sparsely, so a subset of a
        segment-backed or overlay table copies nothing population-sized.
        ``ip_ints`` is left empty: no kernel reads it.
        """
        small = ScanTable()
        for pool, _ in _INTERNED:
            setattr(small, pool, getattr(self, pool))
        small.certs = self.certs
        small.id_tuples = self.id_tuples
        small.domains = tuple(sorted(set(domains)))
        small._dom_index = {d: i for i, d in enumerate(small.domains)}
        columns = [(getattr(small, name), self.sparse_column(name)) for name in _ROW_COLUMNS]
        for domain in small.domains:
            rows, dates = self.domain_rows(domain)
            for target, source in columns:
                target.extend(source[row] for row in rows)
            small.csr_dates.extend(dates)
            small.dom_dates.extend(sorted(set(dates)))
            small.csr_off.append(len(small.csr_dates))
            small.dom_dates_off.append(len(small.dom_dates))
        small.csr_rows = array("I", range(len(small.csr_dates)))
        return small

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
        memo = self._rec_cache
        derived._rec_cache = {new: memo[old] for new, old in enumerate(rows) if old in memo}
        derived._build_index()
        return derived

    # -- canonical row walk ----------------------------------------------------

    def row_dicts(self) -> Iterator[dict[str, Any]]:
        """Canonical per-row dicts in dataset order, built straight from
        the columns (no record objects): the value-space view two tables
        compare by."""
        for row in range(len(self)):
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
        # An epoch-overlay table holds pools and domains as views over
        # its base; the wire form is the lists and tuple a rebuild holds.
        for name in _POOLS:
            if name != "ip_ints" and type(state[name]) is not list:
                state[name] = list(state[name])
        if type(state["domains"]) is not tuple:
            state["domains"] = tuple(state["domains"])
        state.pop("_pool_index", None)
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
        self._rec_cache = {}
        self._domain_records = {}
        self._dom_index = {d: i for i, d in enumerate(self.domains)}
        self._set_cache = {}
        self._singleton_sets = {}
        self._date_cache = {}
        self.id_tuples = {}
        self._pool_index = {}


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
        # A new value gets the next id: its side-table entry appends to
        # whatever holds the values past the interner's base (an epoch
        # overlay's tail holds only those).
        n_ips = len(self._ips.values)
        ip_id = self._ips.intern(ip)
        if ip_id == n_ips:
            table.ip_ints.append(_best_effort_ip_int(ip))
        table.ip_id.append(ip_id)
        table.asn_id.append(self._asns.intern(asn))
        n_certs = len(self._certs.values)
        cert_id = self._certs.intern(certificate.fingerprint)
        if cert_id == n_certs:
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
        for pool, interner in _INTERNED:
            setattr(table, pool, getattr(self, interner).values)
        table._build_index()
        return table
