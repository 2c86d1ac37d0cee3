"""Columnar struct-of-arrays storage for published CT log entries.

crt.sh fronts billions of log entries; the inspection stage asks it two
questions — "all certificates under this registered domain" and "this
crt.sh id".  :class:`CtTable` answers both for
:class:`~repro.ct.crtsh.CrtShService` and mirrors
:class:`repro.scan.table.ScanTable` for the CT channel: one row per
*published* log entry in ``(log, entry)`` order, typed-array columns for
the dates and crt.sh ids, and first-seen-order interned pools (issuers,
SAN sets, certificates keyed by fingerprint) whose ids are a pure
function of the row stream.

The registered-domain index keeps crt.sh's per-SAN semantics: every row
is appended to the bucket of each SAN's registered domain *per SAN* (a
certificate naming two subdomains of one base appears twice), buckets
keep first-insertion base order, and each bucket also carries a stably
``(not_before, crtsh_id)``-sorted permutation with a parallel not-before
ordinal array — so a date-window search is a ``bisect``-found contiguous
slice.  Filtering a stably sorted list by a predicate measurable in the
sort key equals stably sorting the filtered list, which is why the slice
matches a per-SAN list index's filter-then-sort byte for byte (the
property suite holds it to the test-only model in ``tests/reference.py``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from datetime import date, timedelta
from typing import TYPE_CHECKING, Iterable

from repro.net.names import registered_domain
from repro.scan.table import _Interner
from repro.tls.certificate import Certificate

if TYPE_CHECKING:
    from repro.ct.log import CTLog

#: Per-row columns, in declaration order (all aligned, one entry per row).
_ROW_COLUMNS = ("crtsh_id", "cert_id", "issuer_id", "sans_id", "nb_ord", "na_ord", "logged_ord")

#: Intern pools shared between a table and everything derived from it.
_POOLS = ("fps", "certs", "issuers", "san_sets")

#: The pools the content digest covers, with their segment encodings
#: (``certs`` rides ``fps`` id for id).
_DIGEST_POOLS = (("fps", "str"), ("issuers", "str"), ("san_sets", "tuple_str"))


class CtTable:
    """Struct-of-arrays CT entry store with interned value pools."""

    #: What the content digest hashes (:mod:`repro.cache.fingerprint`).
    digest_columns = _ROW_COLUMNS
    digest_pools = _DIGEST_POOLS

    def __init__(self) -> None:
        # -- per-row columns -------------------------------------------------
        self.crtsh_id = array("Q")
        self.cert_id = array("I")
        self.issuer_id = array("I")
        self.sans_id = array("I")
        self.nb_ord = array("i")
        self.na_ord = array("i")
        self.logged_ord = array("i")  # publication (delayed) date
        # -- interned pools (id -> value, first-seen order) ------------------
        self.fps: list[str] = []
        self.certs: list[Certificate] = []
        self.issuers: list[str] = []
        self.san_sets: list[tuple[str, ...]] = []
        #: Entries whose delayed publication fell past the horizon.
        self.hidden_entries = 0
        # -- per-registered-domain CSR index ---------------------------------
        self.bases: tuple[str, ...] = ()
        self.base_rows = array("I")  # bucket append order, one slot per (row, SAN)
        self.base_sorted = array("I")  # per base: stable (not_before, crtsh_id) sort
        self.base_nb = array("i")  # not-before ordinals parallel to base_sorted
        self.base_off = array("I", [0])
        # -- lazy decode state (never pickled) -------------------------------
        self._base_index: dict[str, int] = {}
        self._by_crtsh: dict[int, int] | None = None
        self._row_index: dict[tuple[str, int], int] | None = None
        self._date_cache: dict[int, date] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_logs(
        cls,
        logs: Iterable[CTLog],
        delay_days: int = 0,
        horizon: date | None = None,
    ) -> CtTable:
        """Build from logs, applying the publication delay and horizon.

        Rows land in ``(log, entry)`` order — the canonical stream — so
        pool ids and row ids are a pure function of the logs' content.
        """
        delay = timedelta(days=delay_days)
        table = cls()
        builder = _CtTableBuilder(table)
        for log in logs:
            for entry in log.entries():
                published = entry.timestamp + delay
                if horizon is not None and published > horizon:
                    table.hidden_entries += 1
                    continue
                builder.append_entry(entry.certificate, published)
        builder.finish()
        return table

    def __len__(self) -> int:
        return len(self.crtsh_id)

    # -- decode helpers ------------------------------------------------------

    def interned_date(self, ordinal: int) -> date:
        cached = self._date_cache.get(ordinal)
        if cached is None:
            cached = date.fromordinal(ordinal)
            self._date_cache[ordinal] = cached
        return cached

    def certificate(self, row: int) -> Certificate:
        return self.certs[self.cert_id[row]]

    def logged_date(self, row: int) -> date:
        return self.interned_date(self.logged_ord[row])

    def lookup_row(self, crtsh_id: int) -> int | None:
        """First row carrying this crt.sh id, in bucket traversal order
        (base insertion order, bucket append order)."""
        index = self._by_crtsh
        if index is None:
            index = {}
            ids = self.crtsh_id
            for row in self.base_rows:
                index.setdefault(ids[row], row)
            self._by_crtsh = index
        return index.get(crtsh_id)

    def row_of(self, fingerprint: str, logged_ord: int) -> int:
        """The first row for one ``(certificate, publication date)`` —
        the wire-form reference the inspection stage encodes, stable
        across processes regardless of log insertion order."""
        index = self._row_index
        if index is None:
            index = {}
            fps, cert_id = self.fps, self.cert_id
            for row in range(len(self.crtsh_id)):
                index.setdefault((fps[cert_id[row]], self.logged_ord[row]), row)
            self._row_index = index
        return index[(fingerprint, logged_ord)]

    # -- query kernels -------------------------------------------------------

    def search_rows(
        self,
        base: str,
        after_ord: int | None = None,
        before_ord: int | None = None,
    ) -> list[int]:
        """Rows under one registered domain whose not-before falls in
        the closed ordinal window, sorted ``(not_before, crtsh_id)``."""
        index = self._base_index.get(base)
        if index is None:
            return []
        lo, hi = self.base_off[index], self.base_off[index + 1]
        left = lo if after_ord is None else bisect_left(self.base_nb, after_ord, lo, hi)
        right = hi if before_ord is None else bisect_right(self.base_nb, before_ord, lo, hi)
        return list(self.base_sorted[left:right])

    # -- canonical walks -----------------------------------------------------

    def row_dicts(self) -> Iterable[dict]:
        """Canonical value-space walk of every row, in row order."""
        for row in range(len(self.crtsh_id)):
            yield {
                "crtsh_id": self.crtsh_id[row],
                "fp": self.fps[self.cert_id[row]],
                "issuer": self.issuers[self.issuer_id[row]],
                "sans": self.san_sets[self.sans_id[row]],
                "nb": self.nb_ord[row],
                "na": self.na_ord[row],
                "logged": self.logged_ord[row],
            }

    def column_bytes(self) -> int:
        """Bytes held by the typed-array columns (pools excluded)."""
        return sum(
            len(getattr(self, name)) * getattr(self, name).itemsize
            for name in _ROW_COLUMNS
        ) + sum(
            len(arr) * arr.itemsize
            for arr in (self.base_rows, self.base_sorted, self.base_nb, self.base_off)
        )

    # -- derived tables ------------------------------------------------------

    def select(self, rows: Iterable[int]) -> CtTable:
        """A new table holding only ``rows``, pools re-interned.

        Ids are re-assigned in first-seen order over the surviving rows,
        so a derived (fault-degraded) view interns exactly like a table
        freshly built from the surviving entry stream.
        """
        rows = list(rows)
        derived = CtTable()
        derived.crtsh_id = array("Q", (self.crtsh_id[r] for r in rows))
        derived.nb_ord = array("i", (self.nb_ord[r] for r in rows))
        derived.na_ord = array("i", (self.na_ord[r] for r in rows))
        derived.logged_ord = array("i", (self.logged_ord[r] for r in rows))
        certs = _Interner()
        issuers = _Interner()
        san_sets = _Interner()
        fps: list[str] = []
        for r in rows:
            fp = self.fps[self.cert_id[r]]
            ident = certs.intern(fp)
            if ident == len(fps):
                fps.append(fp)
                derived.certs.append(self.certs[self.cert_id[r]])
            derived.cert_id.append(ident)
            derived.issuer_id.append(issuers.intern(self.issuers[self.issuer_id[r]]))
            derived.sans_id.append(san_sets.intern(self.san_sets[self.sans_id[r]]))
        derived.fps = fps
        derived.issuers = issuers.values
        derived.san_sets = san_sets.values
        derived._build_index()
        return derived

    # -- index construction --------------------------------------------------

    def _build_index(self) -> None:
        # Registered domains of each distinct SAN set, one slot per SAN
        # (duplicates preserved — a cert naming two subdomains of one
        # base lands in that base's bucket twice).
        bases_of: dict[int, tuple[str, ...]] = {}
        for ident, sans in enumerate(self.san_sets):
            bases: list[str] = []
            for san in sans:
                name = san[2:] if san.startswith("*.") else san
                try:
                    bases.append(registered_domain(name))
                except ValueError:
                    continue
            bases_of[ident] = tuple(bases)

        buckets: dict[str, list[int]] = {}
        sans_id = self.sans_id
        for row in range(len(self.crtsh_id)):
            for base in bases_of[sans_id[row]]:
                buckets.setdefault(base, []).append(row)

        self.bases = tuple(buckets)
        self._base_index = {base: i for i, base in enumerate(self.bases)}
        nb, ids = self.nb_ord, self.crtsh_id
        base_rows: list[int] = []
        base_sorted: list[int] = []
        base_nb = array("i")
        base_off = array("I", [0])
        for base in self.bases:
            bucket = buckets[base]
            base_rows.extend(bucket)
            ordered = sorted(bucket, key=lambda r: (nb[r], ids[r]))
            base_sorted.extend(ordered)
            base_nb.extend(nb[r] for r in ordered)
            base_off.append(len(base_rows))
        self.base_rows = array("I", base_rows)
        self.base_sorted = array("I", base_sorted)
        self.base_nb = base_nb
        self.base_off = base_off

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_base_index"] = None
        state["_by_crtsh"] = None
        state["_row_index"] = None
        state["_date_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._base_index = {base: i for i, base in enumerate(self.bases)}
        self._by_crtsh = None
        self._row_index = None
        self._date_cache = {}


class _CtTableBuilder:
    """Append-only builder: published entries in, indexed table out."""

    def __init__(self, table: CtTable) -> None:
        self.table = table
        self._certs = _Interner()
        self._issuers = _Interner()
        self._san_sets = _Interner()

    def append_entry(self, cert: Certificate, published: date) -> None:
        table = self.table
        ident = self._certs.intern(cert.fingerprint)
        if ident == len(table.certs):
            table.certs.append(cert)
        table.cert_id.append(ident)
        table.crtsh_id.append(cert.crtsh_id)
        table.issuer_id.append(self._issuers.intern(cert.issuer))
        table.sans_id.append(self._san_sets.intern(tuple(cert.sans)))
        table.nb_ord.append(cert.not_before.toordinal())
        table.na_ord.append(cert.not_after.toordinal())
        table.logged_ord.append(published.toordinal())

    def finish(self) -> None:
        table = self.table
        table.fps = self._certs.values
        table.issuers = self._issuers.values
        table.san_sets = self._san_sets.values
        table._build_index()
