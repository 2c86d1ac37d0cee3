"""Overlay extension of an indexed scan table with appended rows.

An epoch delta appends new scan observations to an existing (possibly
mmap-backed, possibly already extended) table.  Rebuilding the table
from the concatenated row stream would intern every pool value and
re-sort every domain's rows again — O(dataset) work for an O(delta)
change.  The overlay does Python work in proportion to the delta only,
by exploiting two invariants of the columnar design:

* **Interning is append-stable.**  Pool ids are assigned in
  first-appearance order over the row stream, so appending rows *after*
  the base rows preserves every base id verbatim; only genuinely new
  values get new (higher) ids.  The derived table's pools are the base
  pools followed by the delta's new values (:class:`ExtendedPool`), and
  a delta value finds its base id by bisecting the pool's sorted order
  (:meth:`ScanTable.pool_index`) — no base pool is decoded beyond the
  O(log n) entries each lookup compares.  A derived table carries those
  lookups forward (the base lookup plus a dict of the delta's values),
  so a stack of epochs stays O(delta) per epoch.
* **The CSR index is domain-local.**  A domain's CSR slice depends only
  on that domain's own rows, and row indices never shift (the delta
  lands strictly after the base), so each run of *clean* domains copies
  from the base index as one buffer slice per array with one offset
  shift; only domains the delta touches are re-merged and re-sorted.
  ``domains`` stays the base pool, or becomes a
  :class:`MergedSortedPool` view when the delta adds names.

Row columns and ``ip_ints`` copy as one buffer each, and the content
digest's blocks extend the same way: every full base block is reused,
and only the trailing partial blocks are hashed again, from the column
and pool buffers.  The result is **identical** — pools, ids, columns,
CSR arrays, pickled wire form, digest blocks — to a table rebuilt from
the concatenated rows.  The
differential property suite (``tests/test_properties_epochs.py``) pins
exactly that equivalence, which is what makes the epoch engine's reuse
of base products sound rather than heuristic.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import Iterable, Sequence

from repro.cache.fingerprint import extended_block_digests
from repro.scan.table import _INTERNED, _ROW_COLUMNS, ScanTable, _TableBuilder
from repro.segments.pools import ExtendedPool, MergedSortedPool, SortedPoolIndex


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


def extend_scan_table(base: ScanTable, rows: Iterable[Sequence]) -> ScanTable:
    """The table for ``base``'s rows followed by ``rows``, via overlay.

    ``rows`` are :meth:`_TableBuilder.append_row` argument tuples —
    ``(date_ordinal, ip, asn, certificate, country, ports, names,
    base_domains, trusted, sensitive)`` — exactly what an epoch delta
    carries.  The base (in-RAM, segment-backed or itself derived) is
    not modified; the derived table shares its pools and reads them
    only for the values the delta looks up.
    """
    derived = ScanTable()
    # Row columns copy verbatim: the delta appends, never rewrites.
    for name in _ROW_COLUMNS:
        setattr(derived, name, _copy_array(getattr(base, name)))
    derived.ip_ints = _copy_array(base.ip_ints)
    derived.certs = _extended(base.certs)

    builder = _TableBuilder(derived)
    for pool, interner in _INTERNED:
        extension = _PoolExtension.carry(base, pool)
        setattr(builder, interner, extension)
        derived._pool_index[pool] = extension

    buckets: dict[str, list[int]] = {}
    for row in rows:
        for name in row[7]:
            buckets.setdefault(name, []).append(len(derived.date_ord))
        builder.append_row(*row)

    for pool, interner in _INTERNED:
        setattr(derived, pool, _settle(getattr(builder, interner).values))
    derived.certs = _settle(derived.certs)
    base_cache = base._rec_cache
    derived._rec_cache = base_cache + [None] * (len(derived) - len(base_cache))

    _splice_index(derived, base, buckets)
    # The cache-side half of the overlay: the merged table's content
    # digest reuses every full base block and hashes only the trailing
    # partial blocks, from buffers, so epoch runs pay for what changed.
    extended_block_digests(derived, base)
    return derived


def _splice_index(
    derived: ScanTable, base: ScanTable, buckets: dict[str, list[int]]
) -> None:
    """Build the CSR index by copying clean base runs and re-merging
    only the domains the appended rows touch.

    Equivalence with ``_build_index`` over the full row stream: a
    domain's rows sort by ``(date, ip string)`` with ties broken by row
    index (the sort is stable over index-ordered buckets).  A clean
    domain's base slice already *is* that order — indices unshifted —
    and a dirty domain's merge list (base slice, then new rows in index
    order) stably re-sorts to it.  Comparing ip *strings* equals
    comparing the rebuild's precomputed string ranks.
    """
    date_ord = derived.date_ord
    ip_id_col = derived.ip_id
    ips = derived.ips

    # The base's domain pool, as a root pool plus the names earlier
    # epochs inserted into it.
    domains = base.domains
    if isinstance(domains, MergedSortedPool):
        root, names, root_at = domains.root, domains.names, domains.root_at
    else:
        root, names, root_at = domains, [], []
    root_index = SortedPoolIndex(root)

    # Events in base-domain order: a touched base domain at its ordinal,
    # a new name just before the base domain it sorts in front of.
    events: list[tuple[int, int, str]] = []
    added: list[tuple[str, int]] = []
    for name in buckets:
        ordinal = base.domain_index(name)
        if ordinal is None:
            at = root_index.bisect(name)
            added.append((name, at))
            events.append((at + bisect_left(names, name), 0, name))
        else:
            events.append((ordinal, 1, name))
    events.sort()

    base_off = base.csr_off
    base_dd_off = base.dom_dates_off
    base_csr_rows = base.csr_rows
    csr_rows = array("I")
    csr_dates = array("i")
    csr_off = array("I", [0])
    dom_dates = array("i")
    dom_dates_off = array("I", [0])

    def copy_clean(lo: int, hi: int) -> None:
        # A run of base domains [lo, hi) none of which the delta touches:
        # their concatenated CSR slices copy as raw bytes, and their
        # offsets as one shifted buffer.
        if lo >= hi:
            return
        row_lo, row_hi = base_off[lo], base_off[hi]
        date_lo, date_hi = base_dd_off[lo], base_dd_off[hi]
        row_shift = len(csr_rows) - row_lo
        date_shift = len(dom_dates) - date_lo
        csr_rows.frombytes(_shifted(base_csr_rows, row_lo, row_hi))
        csr_dates.frombytes(_shifted(base.csr_dates, row_lo, row_hi))
        dom_dates.frombytes(_shifted(base.dom_dates, date_lo, date_hi))
        csr_off.frombytes(_shifted(base_off, lo + 1, hi + 1, row_shift))
        dom_dates_off.frombytes(_shifted(base_dd_off, lo + 1, hi + 1, date_shift))

    def emit_merged(merged: list[int]) -> None:
        merged.sort(key=lambda r: (date_ord[r], ips[ip_id_col[r]]))
        csr_rows.extend(merged)
        previous = None
        for row in merged:
            ordinal = date_ord[row]
            csr_dates.append(ordinal)
            if ordinal != previous:
                dom_dates.append(ordinal)
                previous = ordinal
        csr_off.append(len(csr_rows))
        dom_dates_off.append(len(dom_dates))

    cursor = 0
    for position, touched, name in events:
        copy_clean(cursor, position)
        if touched:
            merged = list(base_csr_rows[base_off[position]:base_off[position + 1]])
            merged.extend(buckets[name])
            cursor = position + 1
        else:
            merged = list(buckets[name])
            cursor = position
        emit_merged(merged)
    copy_clean(cursor, len(domains))

    if added:
        inserted = sorted(list(zip(names, root_at)) + added)
        derived.domains = MergedSortedPool(
            root, [name for name, _ in inserted], [at for _, at in inserted]
        )
        derived._dom_index = derived.domains
    else:
        derived.domains = domains
        derived._dom_index = base._dom_index
    derived.csr_rows = csr_rows
    derived.csr_dates = csr_dates
    derived.csr_off = csr_off
    derived.dom_dates = dom_dates
    derived.dom_dates_off = dom_dates_off


__all__ = ["extend_scan_table"]
