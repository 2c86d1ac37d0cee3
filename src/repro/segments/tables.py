"""Segment writers and mmap-backed openers for the three evidence tables.

Each writer lays an indexed table's typed-array columns and prebuilt CSR
indexes into one ``repro-segment/1`` file; each opener returns a table
*subclass* whose columns are zero-copy views over the mapping.  The
openers change storage, never semantics: interned ids, CSR slices, and
every query kernel match the in-RAM build byte for byte (the
differential property suite pins this).

Pool strategy differs per table by population size:

* **scan** — the million-domain table.  String and tuple pools stay on
  disk behind lazy views (:mod:`repro.segments.pools`), and the
  ``{domain: position}`` index becomes a bisect over the sorted domain
  pool, so a worker's resident set is O(touched values), not O(table).
  Each interned pool that is not already sorted stores its sorted-order
  permutation as ``<pool>.ord`` (the header's ``sorted_pools`` names
  the ones that are), so an epoch overlay finds a value's id by
  bisection instead of decoding the pool.
* **pdns / ct** — orders of magnitude smaller (shortlist-scale).  Their
  pools travel as one pickle blob and materialize eagerly, keeping the
  service layers (:class:`~repro.pdns.database.PassiveDNSDatabase`,
  :class:`~repro.ct.crtsh.CrtShService`) oblivious to the backing.

Segment-backed tables pickle as their path alone (``__reduce__`` to the
opener), so handing one to a process pool ships tens of bytes and the
worker reattaches to the mapping instead of receiving a copy.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path
from typing import Iterable

from repro.ct.table import CtTable
from repro.pdns.table import PdnsTable
from repro.scan.table import _INTERNED, ScanTable
from repro.segments.format import Segment, SegmentError, SegmentWriter
from repro.segments.pools import (
    SortedPoolIndex,
    read_str_pool,
    read_tuple_int_pool,
    read_tuple_str_pool,
    sorted_order,
    write_str_pool,
    write_tuple_int_pool,
    write_tuple_str_pool,
)

#: Scan columns stored as raw arrays, name -> in-table attribute (1:1).
_SCAN_ARRAYS = (
    "date_ord",
    "ip_id",
    "asn_id",
    "cert_id",
    "country_id",
    "ports_id",
    "names_id",
    "bases_id",
    "flags",
    "ip_ints",
    "asns",
    "csr_rows",
    "csr_dates",
    "csr_off",
    "dom_dates",
    "dom_dates_off",
)

_PDNS_ARRAYS = (
    "rrname_id",
    "rtype_code",
    "rdata_id",
    "first_ord",
    "last_ord",
    "count",
    "name_rows",
    "name_off",
    "dom_rows",
    "dom_off",
)

_CT_ARRAYS = (
    "crtsh_id",
    "cert_id",
    "issuer_id",
    "sans_id",
    "nb_ord",
    "na_ord",
    "logged_ord",
    "base_rows",
    "base_sorted",
    "base_nb",
    "base_off",
)


def _as_array(table, name):
    from array import array

    value = getattr(table, name)
    if isinstance(value, array):
        return value
    if isinstance(value, memoryview):
        # Re-segmenting a segment-backed table: columns are typed views.
        return array(value.format, value)
    # asns is a plain list of ints on the in-RAM table.
    return array("q", value)


def _expect_table(segment: Segment, table: str) -> None:
    if segment.table != table:
        raise SegmentError(
            f"{segment.path}: expected a {table!r} segment, found {segment.table!r}"
        )


# -- scan ----------------------------------------------------------------------


def write_scan_table(
    table: ScanTable,
    path: str | Path,
    *,
    scan_dates: Iterable[date] = (),
    known_missing: Iterable[date] = (),
) -> Path:
    """Write one indexed :class:`ScanTable` (plus its dataset calendar).

    The header also carries the table's per-block row digests (see
    :func:`repro.cache.fingerprint.scan_block_digests`): the write is
    already an O(rows) walk, and persisting the digests makes the first
    cache probe over the opened bundle O(1) instead of a full re-walk.
    """
    from repro.cache.fingerprint import SCAN_BLOCK_ROWS, scan_block_digests

    orders = {
        name: sorted_order(getattr(table, name))
        for name in [pool for pool, _ in _INTERNED] + ["domains"]
    }
    writer = SegmentWriter(
        "scan",
        meta={
            "n_rows": len(table),
            "scan_dates": sorted(d.toordinal() for d in scan_dates),
            "known_missing": sorted(d.toordinal() for d in known_missing),
            "block_rows": SCAN_BLOCK_ROWS,
            "block_digests": list(scan_block_digests(table)),
            "sorted_pools": sorted(n for n, order in orders.items() if order is None),
        },
    )
    for name in _SCAN_ARRAYS:
        writer.add_array(name, _as_array(table, name))
    for name, order in orders.items():
        if order is not None:
            writer.add_array(f"{name}.ord", order)
    write_str_pool(writer, "ips", table.ips)
    write_str_pool(writer, "cert_fps", table.cert_fps)
    write_str_pool(writer, "countries", table.countries)
    write_str_pool(writer, "domains", table.domains)
    write_tuple_int_pool(writer, "port_sets", table.port_sets)
    write_tuple_str_pool(writer, "name_sets", table.name_sets)
    write_tuple_str_pool(writer, "base_sets", table.base_sets)
    writer.add_pickle("certs", list(table.certs))
    return writer.write(path)


class SegmentScanTable(ScanTable):
    """A :class:`ScanTable` whose columns live in one mapped segment.

    Pools are lazy views; the domain index is a bisect over the sorted
    on-disk domain pool, and :meth:`pool_index` bisects through each
    pool's stored order.  Pickles as its path (workers reopen the map).
    """

    def __init__(self, segment: Segment) -> None:
        super().__init__()
        _expect_table(segment, "scan")
        self.segment = segment
        for name in _SCAN_ARRAYS:
            setattr(self, name, segment.array(name))
        self.ips = read_str_pool(segment, "ips")
        self.cert_fps = read_str_pool(segment, "cert_fps")
        self.countries = read_str_pool(segment, "countries")
        self.domains = read_str_pool(segment, "domains")
        self.port_sets = read_tuple_int_pool(segment, "port_sets")
        self.name_sets = read_tuple_str_pool(segment, "name_sets")
        self.base_sets = read_tuple_str_pool(segment, "base_sets")
        self.certs = segment.pickle("certs")
        self._dom_index = SortedPoolIndex(self.domains)
        self._rec_cache = [None] * len(self.date_ord)
        digests = segment.meta.get("block_digests")
        if digests:
            from repro.cache.fingerprint import SCAN_BLOCK_ROWS

            if int(segment.meta.get("block_rows", 0)) == SCAN_BLOCK_ROWS:
                # Seed the digest memo from the header: the first cache
                # probe over this bundle then costs no row walk at all.
                self._repro_block_digests = (SCAN_BLOCK_ROWS, tuple(digests))

    def _pool_order(self, name: str):
        if name in self.segment.meta.get("sorted_pools", ()):
            return None
        return self.segment.array(f"{name}.ord")

    def __reduce__(self):
        return (open_scan_table, (str(self.segment.path),))


def open_scan_table(path: str | Path) -> SegmentScanTable:
    return SegmentScanTable(Segment.open(path))


# -- pdns ----------------------------------------------------------------------


def write_pdns_table(table: PdnsTable, path: str | Path) -> Path:
    writer = SegmentWriter("pdns", meta={"n_rows": len(table)})
    for name in _PDNS_ARRAYS:
        writer.add_array(name, _as_array(table, name))
    writer.add_pickle(
        "pools",
        {
            "rrnames": list(table.rrnames),
            "rdatas": list(table.rdatas),
            "names": table.names,
            "domains": table.domains,
            "irregular_rows": table.irregular_rows,
        },
    )
    return writer.write(path)


class SegmentPdnsTable(PdnsTable):
    """A :class:`PdnsTable` whose columns live in one mapped segment."""

    def __init__(self, segment: Segment) -> None:
        super().__init__()
        _expect_table(segment, "pdns")
        self.segment = segment
        for name in _PDNS_ARRAYS:
            setattr(self, name, segment.array(name))
        pools = segment.pickle("pools")
        self.rrnames = pools["rrnames"]
        self.rdatas = pools["rdatas"]
        self.names = tuple(pools["names"])
        self.domains = tuple(pools["domains"])
        self.irregular_rows = tuple(pools["irregular_rows"])
        self._name_index = {name: i for i, name in enumerate(self.names)}
        self._dom_index = {base: i for i, base in enumerate(self.domains)}
        self._rec_cache = [None] * len(self.first_ord)

    def __reduce__(self):
        return (open_pdns_table, (str(self.segment.path),))


def open_pdns_table(path: str | Path) -> SegmentPdnsTable:
    return SegmentPdnsTable(Segment.open(path))


# -- ct ------------------------------------------------------------------------


def write_ct_table(table: CtTable, path: str | Path) -> Path:
    writer = SegmentWriter(
        "ct", meta={"n_rows": len(table), "hidden_entries": table.hidden_entries}
    )
    for name in _CT_ARRAYS:
        writer.add_array(name, _as_array(table, name))
    writer.add_pickle(
        "pools",
        {
            "fps": list(table.fps),
            "certs": list(table.certs),
            "issuers": list(table.issuers),
            "san_sets": list(table.san_sets),
            "bases": table.bases,
        },
    )
    return writer.write(path)


class SegmentCtTable(CtTable):
    """A :class:`CtTable` whose columns live in one mapped segment."""

    def __init__(self, segment: Segment) -> None:
        super().__init__()
        _expect_table(segment, "ct")
        self.segment = segment
        for name in _CT_ARRAYS:
            setattr(self, name, segment.array(name))
        pools = segment.pickle("pools")
        self.fps = pools["fps"]
        self.certs = pools["certs"]
        self.issuers = pools["issuers"]
        self.san_sets = pools["san_sets"]
        self.bases = tuple(pools["bases"])
        self.hidden_entries = int(segment.meta.get("hidden_entries", 0))
        self._base_index = {base: i for i, base in enumerate(self.bases)}

    def __reduce__(self):
        return (open_ct_table, (str(self.segment.path),))


def open_ct_table(path: str | Path) -> SegmentCtTable:
    return SegmentCtTable(Segment.open(path))


__all__ = [
    "SegmentCtTable",
    "SegmentPdnsTable",
    "SegmentScanTable",
    "open_ct_table",
    "open_pdns_table",
    "open_scan_table",
    "write_ct_table",
    "write_pdns_table",
    "write_scan_table",
]
