"""Segment writers and mmap-backed openers for the three evidence tables.

Each writer lays an indexed table's typed-array columns and prebuilt CSR
indexes into one ``repro-segment/3`` file; each opener returns a table
*subclass* whose columns are zero-copy views over the mapping.  The
openers change storage, never semantics: interned ids, CSR slices, and
every query kernel match the in-RAM build byte for byte (the
differential property suite pins this).

Opening a table views no column: each blob-backed attribute resolves on
first access (:class:`LazyAttributes`).  A column attribute is a dense
view, so the segment verifies every chunk of it then; a pool is a lazy
view whose reads verify only the chunks they touch, and
:meth:`SegmentScanTable.sparse_column` reads a column the same way (row
records and the shortlist's evidence rows read through it).  A warm
hunt verifies the pool chunks it decodes, an epoch merge the chunks
holding the rows and pool entries the delta meets, and a pool worker
the columns its kernel binds.

Pool strategy differs per table by population size:

* **scan** — the million-domain table.  Every pool, certificates
  included, stays on disk behind a lazy view (:mod:`repro.segments.pools`),
  and the ``{domain: position}`` index becomes a bisect over the sorted
  domain pool, so a worker's resident set is O(touched values), not
  O(table).
  Each interned pool that is not already sorted stores its sorted-order
  permutation as ``<pool>.ord`` (the header's ``sorted_pools`` names
  the ones that are), so an epoch overlay finds a value's id by
  bisection instead of decoding the pool.
* **pdns / ct** — orders of magnitude smaller (shortlist-scale).  Their
  pools travel as one pickle blob and load with the table, keeping the
  service layers (:class:`~repro.pdns.database.PassiveDNSDatabase`,
  :class:`~repro.ct.crtsh.CrtShService`) oblivious to the backing.

Segment-backed tables pickle as their path alone (``__reduce__`` to the
opener), so handing one to a process pool ships tens of bytes and the
worker reattaches to the mapping instead of receiving a copy.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.ct.table import CtTable
from repro.pdns.table import PdnsTable
from repro.scan.table import _INTERNED, ScanTable
from repro.segments.format import Segment, SegmentError, SegmentWriter
from repro.segments.pools import (
    SortedPoolIndex,
    encode_pool,
    read_pool,
    sorted_order,
    write_pool,
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
    "csr_rows",
    "csr_dates",
    "csr_off",
    "dom_dates",
    "dom_dates_off",
)

#: Scan pools stored in their segment encodings: the digested pools plus
#: the sorted domain pool and the certificates.
_SCAN_POOLS = ScanTable.digest_pools + (("domains", "str"), ("certs", "cert"))

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
    if isinstance(value, memoryview):
        # Re-segmenting a segment-backed table: columns are typed views.
        return array(value.format, value)
    return value


def _expect_table(segment: Segment, table: str) -> None:
    if segment.table != table:
        raise SegmentError(
            f"{segment.path}: expected a {table!r} segment, found {segment.table!r}"
        )


#: Header key of a table's content-digest blocks.  A segment written
#: before the byte digest has none (its row-scheme ``block_digests``
#: never seeds the memo): its blocks are hashed from its columns on the
#: first cache probe instead.
_BLOCKS_KEY = "content_blocks"


def _block_meta(table, pools=None) -> dict:
    from repro.cache.fingerprint import block_digests

    return {_BLOCKS_KEY: block_digests(table, pools)}


def _seed_blocks(table, segment: Segment) -> None:
    """Seed the content-digest memo from the header, so the first cache
    probe over the opened table hashes nothing."""
    blocks = segment.meta.get(_BLOCKS_KEY)
    if blocks is not None:
        table._repro_blocks = blocks


# -- scan ----------------------------------------------------------------------


def write_scan_table(
    table: ScanTable,
    path: str | Path,
    *,
    scan_dates: Iterable[date] = (),
    known_missing: Iterable[date] = (),
) -> Path:
    """Write one indexed :class:`ScanTable` (plus its dataset calendar).

    Every pool is encoded once, and the header's content-digest blocks
    (:func:`repro.cache.fingerprint.block_digests`) are hashed from the
    same buffers the file stores, so the first cache probe over the
    opened bundle hashes nothing.
    """
    orders = {
        name: sorted_order(getattr(table, name))
        for name in [pool for pool, _ in _INTERNED] + ["domains"]
    }
    pools = {name: encode_pool(getattr(table, name), kind) for name, kind in _SCAN_POOLS}
    writer = SegmentWriter(
        "scan",
        meta={
            "n_rows": len(table),
            "scan_dates": sorted(d.toordinal() for d in scan_dates),
            "known_missing": sorted(d.toordinal() for d in known_missing),
            "sorted_pools": sorted(n for n, order in orders.items() if order is None),
            **_block_meta(table, pools),
        },
    )
    for name in _SCAN_ARRAYS:
        writer.add_array(name, _as_array(table, name))
    for name, order in orders.items():
        if order is not None:
            writer.add_array(f"{name}.ord", order)
    for name, view in pools.items():
        write_pool(writer, name, view)
    return writer.write(path)


class LazyAttributes:
    """Attributes that resolve on first access and stay from then on.

    ``_LAZY`` maps each name to a resolver of the instance; the first
    read of the name stores what its resolver returns (a resolver that
    computes several attributes together may store its siblings too).
    Construction drops the base class's defaults for those names, which
    would otherwise shadow :meth:`__getattr__`.
    """

    _LAZY: dict[str, Callable[[Any], Any]] = {}

    def __init__(self) -> None:
        super().__init__()
        for name in self._LAZY:
            self.__dict__.pop(name, None)

    def __getattr__(self, name: str) -> Any:
        resolve = type(self)._LAZY.get(name)
        if resolve is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        value = resolve(self)
        setattr(self, name, value)
        return value


class _SegmentTable(LazyAttributes):
    """What the segment-backed tables share: opening views no blob.

    Each blob-backed attribute named in the class's ``_LAZY`` resolves
    on first access, so a reader views, and the segment verifies, only
    the blobs it touches.  Pickles as its path: a pool worker reopens
    the map instead of receiving a copy.
    """

    _TABLE = ""

    def __init__(self, segment: Segment) -> None:
        _expect_table(segment, self._TABLE)
        super().__init__()
        self.segment = segment
        _seed_blocks(self, segment)

    @classmethod
    def open(cls, path: str | Path):
        return cls(Segment.open(path))

    def __reduce__(self):
        return (type(self).open, (str(self.segment.path),))


def _columns(names: Iterable[str]) -> dict[str, Callable[[Any], Any]]:
    return {name: (lambda table, name=name: table.segment.array(name)) for name in names}


class SegmentScanTable(_SegmentTable, ScanTable):
    """A :class:`ScanTable` whose columns live in one mapped segment.

    Pools are lazy views; the domain index is a bisect over the sorted
    on-disk domain pool, and :meth:`pool_index` bisects through each
    pool's stored order, read through range reads like the pools.
    """

    _TABLE = "scan"
    _LAZY = {
        **_columns(_SCAN_ARRAYS),
        **{
            name: (lambda table, name=name, kind=kind: read_pool(table.segment, name, kind))
            for name, kind in _SCAN_POOLS
        },
        "_dom_index": lambda table: SortedPoolIndex(table.domains),
        "_sparse": lambda table: {},
    }

    def __len__(self) -> int:
        return self.segment.meta["n_rows"]

    def sparse_column(self, name: str):
        column = self.__dict__.get(name)
        if column is None:
            column = self._sparse.get(name)
            if column is None:
                column = self._sparse[name] = self.segment.items(name)
        return column

    def _pool_order(self, name: str):
        if name in self.segment.meta.get("sorted_pools", ()):
            return None
        return self.segment.items(f"{name}.ord")


open_scan_table = SegmentScanTable.open


# -- pdns ----------------------------------------------------------------------


def write_pdns_table(table: PdnsTable, path: str | Path) -> Path:
    writer = SegmentWriter("pdns", meta={"n_rows": len(table), **_block_meta(table)})
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


class SegmentPdnsTable(_SegmentTable, PdnsTable):
    """A :class:`PdnsTable` whose columns live in one mapped segment; its
    small pools load with it."""

    _TABLE = "pdns"
    _LAZY = _columns(_PDNS_ARRAYS)

    def __init__(self, segment: Segment) -> None:
        super().__init__(segment)
        pools = segment.pickle("pools")
        self.rrnames = pools["rrnames"]
        self.rdatas = pools["rdatas"]
        self.names = tuple(pools["names"])
        self.domains = tuple(pools["domains"])
        self.irregular_rows = tuple(pools["irregular_rows"])
        self._name_index = {name: i for i, name in enumerate(self.names)}
        self._dom_index = {base: i for i, base in enumerate(self.domains)}


open_pdns_table = SegmentPdnsTable.open


# -- ct ------------------------------------------------------------------------


def write_ct_table(table: CtTable, path: str | Path) -> Path:
    writer = SegmentWriter(
        "ct",
        meta={
            "n_rows": len(table),
            "hidden_entries": table.hidden_entries,
            **_block_meta(table),
        },
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


class SegmentCtTable(_SegmentTable, CtTable):
    """A :class:`CtTable` whose columns live in one mapped segment; its
    small pools load with it."""

    _TABLE = "ct"
    _LAZY = _columns(_CT_ARRAYS)

    def __init__(self, segment: Segment) -> None:
        super().__init__(segment)
        pools = segment.pickle("pools")
        self.fps = pools["fps"]
        self.certs = pools["certs"]
        self.issuers = pools["issuers"]
        self.san_sets = pools["san_sets"]
        self.bases = tuple(pools["bases"])
        self.hidden_entries = int(segment.meta.get("hidden_entries", 0))
        self._base_index = {base: i for i, base in enumerate(self.bases)}


open_ct_table = SegmentCtTable.open


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
