"""Overlay extension of an indexed scan table with appended rows.

An epoch delta appends new scan observations to an existing (possibly
mmap-backed, possibly already extended) table.  Rebuilding the table
from the concatenated row stream would intern every pool value and
re-sort every domain's rows again — O(dataset) work for an O(delta)
change.  Copying the base's columns and CSR index would still read and
verify every byte of them.  The overlay instead reads and writes in
proportion to the delta, by exploiting two invariants of the columnar
design:

* **Interning is append-stable.**  Pool ids are assigned in
  first-appearance order over the row stream, so appending rows *after*
  the base rows preserves every base id verbatim; only genuinely new
  values get new (higher) ids.  The derived table's pools are the base
  pools followed by the delta's new values (:class:`ExtendedPool`), and
  a delta value finds its base id by bisecting the pool's sorted order
  (:meth:`ScanTable.pool_index`) — no base pool is decoded beyond the
  O(log n) entries each lookup compares.
* **The CSR index is domain-local.**  A domain's CSR slice depends only
  on that domain's own rows, and row indices never shift (the delta
  lands strictly after the base), so only the domains the delta touches
  are re-merged; every other domain's run is the base's.  ``domains``
  stays the base pool, or becomes a :class:`MergedSortedPool` view when
  the delta adds names.

The derived table (:class:`OverlayScanTable`) is therefore its root
table, an in-RAM tail holding the appended rows' columns, the extended
pools and the re-merged runs of the touched domains.  Its flat columns,
CSR arrays and ``ip_ints`` are materialized on first access, by copying
the root's buffers and splicing the re-merged runs in; a pickle
materializes first, so the wire form is a rebuild's.  Reads of a few
rows copy nothing: :meth:`~OverlayScanTable.domain_rows` answers from
the re-merged runs or the root's CSR, and
:meth:`~OverlayScanTable.sparse_column` from the root's rows or the
tail's, and ``record`` builds a root row through the root, whose memo
keeps it, and a tail row over the overlay's own memo.
A seeded epoch therefore never materializes: its dirty domains
re-encode over :meth:`ScanTable.subset`, the funnel reads its
shortlisted rows sparsely, and the content digest reuses every full
base block and hashes only the trailing partial blocks, reading the
root's last rows through range reads.  Extending a derived table
flattens onto its root, so a stack of epochs stays one root plus one
tail.

The result is **identical** — pools, ids, columns, CSR arrays, pickled
wire form, digest blocks — to a table rebuilt from the concatenated
rows.  The differential property suite (``tests/test_properties_epochs.py``)
pins exactly that equivalence, which is what makes the epoch engine's
reuse of base products sound rather than heuristic.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from typing import Any

from repro.cache.fingerprint import extended_block_digests
from repro.scan.table import _INTERNED, _ROW_COLUMNS, ScanTable, _TableBuilder
from repro.segments.pools import ExtendedPool, MergedSortedPool, SortedPoolIndex
from repro.segments.tables import LazyAttributes

#: The CSR arrays, materialized together by one splice.
_CSR = ("csr_rows", "csr_dates", "csr_off", "dom_dates", "dom_dates_off")
#: Attributes only the overlay holds (never part of the wire form).
_OWN = ("_root", "_tail", "_merged", "_added", "_sparse")


class _PoolExtension:
    """Interner and lookup of a derived pool.

    ``get`` asks a dict of the values seen since the root table first,
    then bisects the root pool through its sorted order; ``intern``
    appends a value found in neither.
    """

    __slots__ = ("values", "_root", "_ids")

    def __init__(self, values: ExtendedPool, root, ids: dict) -> None:
        self.values = values
        self._root = root
        self._ids = ids

    @classmethod
    def carry(cls, base: ScanTable, name: str) -> _PoolExtension:
        """The extension of ``base``'s pool ``name``, ready to append."""
        index = base.pool_index(name)
        values = _extended(getattr(base, name))
        if isinstance(index, cls):
            return cls(values, index._root, dict(index._ids))
        return cls(values, index, {})

    def get(self, value, default=None):
        ident = self._ids.get(value)
        if ident is None:
            ident = self._root.get(value)
            if ident is None:
                return default
            self._ids[value] = ident
        return ident

    def intern(self, value) -> int:
        ident = self.get(value)
        if ident is None:
            ident = len(self.values)
            self.values.append(value)
            self._ids[value] = ident
        return ident


def _extended(pool) -> ExtendedPool:
    """A fresh extension of ``pool``, flattening an earlier one."""
    if isinstance(pool, ExtendedPool):
        return ExtendedPool(pool.base, pool.extra)
    return ExtendedPool(pool)


def _settle(pool: ExtendedPool):
    """The pool itself when nothing was appended to it."""
    return pool if pool.extra else pool.base


class _Rows(Sequence):
    """Root items then tail items, read in place without copying either:
    an overlay's per-row column (a slice is the bytes of those rows)."""

    __slots__ = ("_root", "_tail", "_n")

    def __init__(self, root, tail, n_root: int) -> None:
        self._root = root
        self._tail = tail
        self._n = n_root

    def __len__(self) -> int:
        return self._n + len(self._tail)

    def __getitem__(self, index):
        n = self._n
        if isinstance(index, slice):
            lo, hi, _ = index.indices(len(self))
            head = self._root[lo : min(hi, n)] if lo < n else b""
            tail = self._tail[max(lo - n, 0) : hi - n] if hi > n else b""
            return bytes(head) + bytes(tail)
        if index < 0:
            index += len(self)
        return self._root[index] if index < n else self._tail[index - n]


def _copied(name: str):
    """Resolver of a flat column: the root's buffer copied, the tail's
    appended (``ip_ints`` is per IP, and its tail holds the new IPs')."""

    def resolve(table: OverlayScanTable) -> array:
        column = _copy_array(getattr(table._root, name))
        column.extend(getattr(table._tail, name))
        return column

    return resolve


def _spliced(name: str):
    """Resolver of a CSR array: one splice stores all five."""

    def resolve(table: OverlayScanTable) -> array:
        table.__dict__.update(_splice_index(table))
        return table.__dict__[name]

    return resolve


class OverlayScanTable(LazyAttributes, ScanTable):
    """A root table's rows followed by appended ones, sharing the root.

    ``_tail`` is a :class:`ScanTable` holding only the appended rows'
    columns and the IPv4 ints of the IPs they added; ``_merged`` maps
    each domain the tail touches to its re-merged CSR run (row ids and
    their date ordinals); ``_added`` maps each name the root lacks to
    how many root names sort before it.  The flat columns, CSR arrays
    and ``ip_ints`` are copied from the root on first access.  Row reads
    through :meth:`sparse_column`, :meth:`domain_rows` and
    :meth:`record` copy nothing; a root row's record is the root's,
    memoized there.
    """

    _LAZY = {
        **{name: _copied(name) for name in _ROW_COLUMNS + ("ip_ints",)},
        **{name: _spliced(name) for name in _CSR},
        "_sparse": lambda table: {},
    }

    def __init__(self, root: ScanTable, tail: ScanTable) -> None:
        super().__init__()
        self._root = root
        self._tail = tail
        self._merged: dict[str, tuple[list[int], list[int]]] = {}
        self._added: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._root) + len(self._tail)

    def materialize(self) -> None:
        """Resolve every attribute in ``_LAZY`` now: the root's columns,
        CSR arrays and ``ip_ints`` are copied."""
        for name in self._LAZY:
            getattr(self, name)

    def sparse_column(self, name: str):
        column = self.__dict__.get(name)
        if column is not None or name not in _ROW_COLUMNS:
            # Copied already, or not per-row (an overlay's CSR runs are
            # read through domain_rows).
            return getattr(self, name)
        column = self._sparse.get(name)
        if column is None:
            column = self._sparse[name] = _Rows(
                self._root.sparse_column(name), getattr(self._tail, name), len(self._root)
            )
        return column

    def record(self, row: int):
        if row < len(self._root):
            return self._root.record(row)
        return super().record(row)

    def domain_rows(self, domain: str) -> tuple[list[int], list[int]]:
        run = self._merged.get(domain)
        if run is not None:
            return list(run[0]), list(run[1])
        return self._root.domain_rows(domain)

    def __getstate__(self) -> dict[str, Any]:
        self.materialize()
        state = super().__getstate__()
        for name in _OWN:
            state.pop(name, None)
        return state

    def __reduce__(self):
        # Unpickles as the plain table a rebuild would be.
        return (_plain_table, (self.__getstate__(),))


def _plain_table(state: dict[str, Any]) -> ScanTable:
    table = ScanTable.__new__(ScanTable)
    table.__setstate__(state)
    return table


def materialize(table: ScanTable) -> None:
    """Copy an overlay's shared root buffers now (a no-op for any other
    table), e.g. before forking workers that would each copy them."""
    if isinstance(table, OverlayScanTable):
        table.materialize()


def _shifted(column, lo: int, hi: int, shift: int = 0):
    """The bytes of ``column[lo:hi]`` (an unsigned typed array) with
    ``shift`` added to every item, at buffer-copy speed.

    The items are read as one native-endian integer and a repeated
    ``shift`` pattern is added to it; each sum stays below the item
    width, so no lane carries into the next.  Without a shift the
    result is a zero-copy view.
    """
    view = memoryview(column)[lo:hi]
    raw = view.cast("B")
    if not shift:
        return raw
    total = int.from_bytes(raw, sys.byteorder) + int.from_bytes(
        shift.to_bytes(view.itemsize, sys.byteorder) * len(view), sys.byteorder
    )
    return total.to_bytes(len(raw), sys.byteorder)


def _copy_array(value) -> array:
    """A mutable ``array`` copy of a column (array or mmap memoryview)."""
    view = memoryview(value)
    out = array(view.format)
    out.frombytes(view.cast("B"))
    return out


def extend_scan_table(base: ScanTable, rows: Iterable[Sequence]) -> OverlayScanTable:
    """The table for ``base``'s rows followed by ``rows``, via overlay.

    ``rows`` are :meth:`_TableBuilder.append_row` argument tuples —
    ``(date_ordinal, ip, asn, certificate, country, ports, names,
    base_domains, trusted, sensitive)`` — exactly what an epoch delta
    carries.  The base (in-RAM, segment-backed or itself derived) is
    not modified; the derived table shares its root and reads it only
    for the values, runs and trailing digest block the delta meets.
    """
    if isinstance(base, OverlayScanTable):
        root, tail = base._root, ScanTable()
        for name in _ROW_COLUMNS + ("ip_ints",):
            setattr(tail, name, _copy_array(getattr(base._tail, name)))
    else:
        root, tail = base, ScanTable()
    n_root = len(root)
    derived = OverlayScanTable(root, tail)
    tail.certs = _extended(base.certs)

    builder = _TableBuilder(tail)
    for pool, interner in _INTERNED:
        extension = _PoolExtension.carry(base, pool)
        setattr(builder, interner, extension)
        derived._pool_index[pool] = extension

    buckets: dict[str, list[int]] = {}
    for row in rows:
        for name in row[7]:
            buckets.setdefault(name, []).append(n_root + len(tail))
        builder.append_row(*row)

    for pool, interner in _INTERNED:
        setattr(derived, pool, _settle(getattr(builder, interner).values))
    derived.certs = _settle(tail.certs)
    tail.certs = []

    _merge_runs(derived, base, buckets)
    # The cache-side half of the overlay: the merged table's content
    # digest reuses every full base block and hashes only the trailing
    # partial blocks, reading the root's rows through range reads.
    extended_block_digests(derived, base)
    return derived


def _merge_runs(
    derived: OverlayScanTable, base: ScanTable, buckets: dict[str, list[int]]
) -> None:
    """Re-merge the CSR run of every domain the appended rows touch and
    place the names the root lacks.

    Equivalence with ``_build_index`` over the full row stream: a
    domain's rows sort by ``(date, ip string)`` with ties broken by row
    index (the sort is stable over index-ordered buckets).  The domain's
    run in ``base`` already *is* that order, and its merge list (that
    run, then the new rows in index order) stably re-sorts to it.
    Comparing ip *strings* equals comparing the rebuild's precomputed
    string ranks.
    """
    root = derived._root
    if isinstance(base, OverlayScanTable):
        derived._merged = dict(base._merged)
        derived._added = dict(base._added)
    date_ord = derived.sparse_column("date_ord")
    ip_id = derived.sparse_column("ip_id")
    ips = derived.ips
    root_index = SortedPoolIndex(root.domains)
    for name, new_rows in buckets.items():
        rows, _ = derived.domain_rows(name)
        if not rows and root.domain_index(name) is None:
            derived._added[name] = root_index.bisect(name)
        rows.extend(new_rows)
        rows.sort(key=lambda r: (date_ord[r], ips[ip_id[r]]))
        derived._merged[name] = (rows, [date_ord[r] for r in rows])

    if derived._added:
        inserted = sorted(derived._added.items())
        derived.domains = MergedSortedPool(
            root.domains, [name for name, _ in inserted], [at for _, at in inserted]
        )
        derived._dom_index = derived.domains
    else:
        derived.domains = root.domains
        derived._dom_index = root._dom_index


def _splice_index(derived: OverlayScanTable) -> dict[str, array]:
    """The overlay's CSR arrays: each run of clean root domains copied as
    one buffer slice per array with one offset shift, and the re-merged
    runs emitted where their domains sort."""
    root = derived._root
    # Events in root-domain order: a touched root domain at its ordinal,
    # a new name just before the root domain it sorts in front of.
    events = []
    for name in derived._merged:
        at = derived._added.get(name)
        if at is None:
            events.append((root.domain_index(name), 1, name))
        else:
            events.append((at, 0, name))
    events.sort()

    base_off = root.csr_off
    base_dd_off = root.dom_dates_off
    csr_rows = array("I")
    csr_dates = array("i")
    csr_off = array("I", [0])
    dom_dates = array("i")
    dom_dates_off = array("I", [0])

    def copy_clean(lo: int, hi: int) -> None:
        # A run of root domains [lo, hi) none of which the tail touches:
        # their concatenated CSR slices copy as raw bytes, and their
        # offsets as one shifted buffer.
        if lo >= hi:
            return
        row_lo, row_hi = base_off[lo], base_off[hi]
        date_lo, date_hi = base_dd_off[lo], base_dd_off[hi]
        row_shift = len(csr_rows) - row_lo
        date_shift = len(dom_dates) - date_lo
        csr_rows.frombytes(_shifted(root.csr_rows, row_lo, row_hi))
        csr_dates.frombytes(_shifted(root.csr_dates, row_lo, row_hi))
        dom_dates.frombytes(_shifted(root.dom_dates, date_lo, date_hi))
        csr_off.frombytes(_shifted(base_off, lo + 1, hi + 1, row_shift))
        dom_dates_off.frombytes(_shifted(base_dd_off, lo + 1, hi + 1, date_shift))

    def emit_merged(rows: list[int], dates: list[int]) -> None:
        csr_rows.extend(rows)
        csr_dates.extend(dates)
        previous = None
        for ordinal in dates:
            if ordinal != previous:
                dom_dates.append(ordinal)
                previous = ordinal
        csr_off.append(len(csr_rows))
        dom_dates_off.append(len(dom_dates))

    cursor = 0
    for position, touched, name in events:
        copy_clean(cursor, position)
        emit_merged(*derived._merged[name])
        cursor = position + touched
    copy_clean(cursor, len(root.domains))
    return {
        "csr_rows": csr_rows,
        "csr_dates": csr_dates,
        "csr_off": csr_off,
        "dom_dates": dom_dates,
        "dom_dates_off": dom_dates_off,
    }


__all__ = ["OverlayScanTable", "extend_scan_table", "materialize"]
