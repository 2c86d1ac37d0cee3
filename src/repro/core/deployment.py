"""Step 1 — building deployment maps (Section 4.1).

A *deployment group* is the observable infrastructure (IPs + the
certificates they return) of one ASN for one domain on one scan date.
Groups of the same ASN clustered longitudinally form a *deployment*;
all deployments of a domain within one six-month period form its
*deployment map*.  A long gap in an ASN's presence splits it into two
deployments, so a provider that disappears for months and returns reads
as two events rather than one continuous deployment.

Maps are built by one columnar kernel in two halves:
:func:`domain_map_encoder` clusters a domain's deployments directly
over the dataset's :class:`~repro.scan.table.ScanTable` column slices —
each period is a bisect-found contiguous CSR slice, cells aggregate
interned integer ids, and the result is a compact int-tuple *encoded*
form that worker results and cache entries ship instead of object
graphs — and :func:`decode_domain_maps` materializes the object maps
from it, one :class:`ContentRun` per encoded run.
:func:`build_domain_maps` runs both halves for one domain.
The row-at-a-time reference algorithm the differential property tests
compare the kernel against lives in ``tests/reference.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from typing import Callable, NamedTuple

from repro.net.timeline import DateInterval, Period
from repro.scan.dataset import ScanDataset


class ContentRun(NamedTuple):
    """Consecutive observations (cells) of one deployment with identical
    content: the dates of the scans that saw it — which may skip scans
    within the deployment's gap tolerance — plus the one set of IPs,
    certificates and countries seen on every one of them."""

    dates: tuple[date, ...]
    ips: frozenset[str]
    cert_fingerprints: frozenset[str]
    countries: frozenset[str]


@dataclass(frozen=True)
class Deployment:
    """A deployment group seen longitudinally: one ASN over time.

    Stored as its date-ordered content runs (:class:`ContentRun`): a
    stable deployment, the overwhelmingly common case, is one run
    however many weeks it spans.  Every view derives from the runs; the
    union views and ``interval`` are cached on first access, since
    classification, the shortlist checks and inspection hit them
    repeatedly.
    """

    domain: str
    asn: int
    runs: tuple[ContentRun, ...]

    @property
    def first_seen(self) -> date:
        return self.runs[0].dates[0]

    @property
    def last_seen(self) -> date:
        return self.runs[-1].dates[-1]

    @property
    def span_days(self) -> int:
        return (self.last_seen - self.first_seen).days + 1

    @property
    def scan_count(self) -> int:
        return sum(len(run.dates) for run in self.runs)

    @cached_property
    def ips(self) -> frozenset[str]:
        return frozenset().union(*(run.ips for run in self.runs))

    @cached_property
    def cert_fingerprints(self) -> frozenset[str]:
        return frozenset().union(*(run.cert_fingerprints for run in self.runs))

    @cached_property
    def countries(self) -> frozenset[str]:
        return frozenset().union(*(run.countries for run in self.runs))

    @cached_property
    def interval(self) -> DateInterval:
        return DateInterval(self.first_seen, self.last_seen)

    def dates(self) -> tuple[date, ...]:
        return tuple(day for run in self.runs for day in run.dates)


@dataclass
class DeploymentMap:
    """All deployments of one domain within one analysis period."""

    domain: str
    period: Period
    deployments: list[Deployment]
    scan_dates_in_period: tuple[date, ...]

    @property
    def visible_dates(self) -> tuple[date, ...]:
        seen = {day for d in self.deployments for run in d.runs for day in run.dates}
        return tuple(sorted(seen))

    @property
    def presence(self) -> float:
        """Fraction of the period's scans in which the domain appears."""
        if not self.scan_dates_in_period:
            return 0.0
        return len(self.visible_dates) / len(self.scan_dates_in_period)

    @property
    def asns(self) -> frozenset[int]:
        return frozenset(d.asn for d in self.deployments)

    def deployments_for_asn(self, asn: int) -> list[Deployment]:
        return [d for d in self.deployments if d.asn == asn]

    def __len__(self) -> int:
        return len(self.deployments)


# -- the columnar kernel and its compact encoded form --------------------------

#: One encoded content run: ``(scan_indices, ip_ids, cert_ids,
#: country_ids)`` — a maximal stretch of *consecutive* groups within one
#: deployment whose observable content is identical.  Scan indices point
#: into the period's scan calendar (``dataset.scan_dates_in(period)``),
#: and every id resolves through the dataset table's shared intern
#: pools.  A stable deployment — the overwhelmingly common case — is a
#: single run: one content triple plus one small index per scan date,
#: instead of one full group tuple per date.
EncodedRun = tuple[
    tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]
]

#: One encoded deployment: ``(asn_id, runs)``, runs being consecutive
#: date-ordered segments (content alternation yields multiple runs).
EncodedDeployment = tuple[int, tuple[EncodedRun, ...]]

#: One domain's encoded maps: ``period.index -> deployments`` pairs.
EncodedDomainMaps = list[tuple[int, tuple[EncodedDeployment, ...]]]


def _canonical_ids(
    ids: set[int], memo: dict[tuple[int, ...], tuple[int, ...]]
) -> tuple[int, ...]:
    """The set as a sorted tuple, interned via the table's tuple memo.

    Handing back one shared tuple per distinct content means pickle
    memoizes the repeats a stable deployment emits week after week —
    worker results and cache entries serialize each content once.
    """
    if len(ids) == 1:
        for value in ids:
            key = (value,)
            break
    else:
        key = tuple(sorted(ids))
    return memo.setdefault(key, key)


def encode_domain_maps(
    dataset: ScanDataset,
    domain: str,
    periods: tuple[Period, ...],
    max_gap_scans: int = 6,
) -> EncodedDomainMaps:
    """One domain's encoded maps by name (one index lookup)."""
    index = dataset.table.domain_index(domain)
    if index is None:
        return []
    return domain_map_encoder(dataset, periods, max_gap_scans)(index)


def domain_map_encoder(
    dataset: ScanDataset,
    periods: tuple[Period, ...],
    max_gap_scans: int = 6,
) -> Callable[[int], EncodedDomainMaps]:
    """The kernel clustering a domain's deployments off the column
    slices, as a function of the domain's ordinal.

    Works entirely in interned-id space: the period is a bisect slice of
    the domain's CSR rows, cells aggregate integer ids, and clustering
    compares scan-calendar indices.  The slice is date-sorted, so cells
    are built one scan date at a time with plain-int ASN keys, each
    ASN's cell sequence comes out date-ordered with no sort, and
    consecutive cells with identical content collapse into one
    :data:`EncodedRun` (content tuples are interned, so "identical"
    is an ``is`` check).  The output is the compact encoded form;
    :func:`decode_domain_maps` materializes the object maps the rest of
    the pipeline consumes.

    The domain is named by its ordinal into ``table.domains`` — the CSR
    row index — so a shard worker sweeping an ordinal range never
    resolves a domain string at all.  The table's columns and each
    period's scan calendar are bound once per sweep, not once per
    domain: at scale most domains have no rows in any period, so
    per-domain set-up would be most of a shard's time, and on a
    segment-backed table each attribute load costs about twice an
    in-RAM table's (a class that resolves blobs through ``__getattr__``
    gets none of CPython's attribute-load specialization).
    """
    table = dataset.table
    asn_id_col = table.asn_id
    ip_id_col = table.ip_id
    cert_id_col = table.cert_id
    country_id_col = table.country_id
    asns = table.asns
    id_tuples = table.id_tuples
    csr_off = table.csr_off
    csr_rows = table.csr_rows
    csr_dates = table.csr_dates
    windows = []
    for period in periods:
        dates_in_period = dataset.scan_dates_in(period)
        if dates_in_period:
            windows.append(
                (
                    period.index,
                    period.start.toordinal(),
                    period.end.toordinal(),
                    {d.toordinal(): i for i, d in enumerate(dates_in_period)},
                )
            )

    def encode(index: int) -> EncodedDomainMaps:
        encoded: EncodedDomainMaps = []
        first, last = csr_off[index], csr_off[index + 1]
        for period_index, start, end, index_of in windows:
            lo = bisect_left(csr_dates, start, first, last)
            hi = bisect_right(csr_dates, end, first, last)
            if lo == hi:
                continue
            rows = csr_rows[lo:hi].tolist()
            ordinals = csr_dates[lo:hi].tolist()
            # by_asn keys appear in first-appearance order over the slice,
            # and each ASN's (scan_index, content) cells are date-ordered by
            # construction.
            by_asn: dict[int, list[tuple[int, tuple]]] = {}
            n = len(rows)
            i = 0
            while i < n:
                ordinal = ordinals[i]
                scan_index = index_of[ordinal]
                run_cells: dict[int, tuple[set[int], set[int], set[int]]] = {}
                while i < n and ordinals[i] == ordinal:
                    row = rows[i]
                    asn_id = asn_id_col[row]
                    cell = run_cells.get(asn_id)
                    if cell is None:
                        cell = (set(), set(), set())
                        run_cells[asn_id] = cell
                    cell[0].add(ip_id_col[row])
                    cell[1].add(cert_id_col[row])
                    cell[2].add(country_id_col[row])
                    i += 1
                for asn_id, (ips, certs, ccs) in run_cells.items():
                    content = (
                        _canonical_ids(ips, id_tuples),
                        _canonical_ids(certs, id_tuples),
                        _canonical_ids(ccs, id_tuples),
                    )
                    content = id_tuples.setdefault(content, content)
                    bucket = by_asn.get(asn_id)
                    if bucket is None:
                        by_asn[asn_id] = [(scan_index, content)]
                    else:
                        bucket.append((scan_index, content))

            # Longitudinal clustering on scan-calendar indices (split an
            # ASN's date-ordered cells on gaps > max_gap_scans), collapsing
            # consecutive same-content cells into runs as we go.
            deployments: list[tuple[int, int, int, tuple[EncodedRun, ...]]] = []
            for asn_id, cells in by_asn.items():
                asn = asns[asn_id]
                first_index, current = cells[0]
                runs: list[EncodedRun] = []
                indices = [first_index]
                previous_index = first_index
                for scan_index, content in cells[1:]:
                    if scan_index - previous_index > max_gap_scans:
                        runs.append((tuple(indices),) + current)
                        deployments.append((first_index, asn, asn_id, tuple(runs)))
                        runs = []
                        indices = [scan_index]
                        current = content
                        first_index = scan_index
                    elif content is current:
                        indices.append(scan_index)
                    else:
                        runs.append((tuple(indices),) + current)
                        indices = [scan_index]
                        current = content
                    previous_index = scan_index
                runs.append((tuple(indices),) + current)
                deployments.append((first_index, asn, asn_id, tuple(runs)))
            # Deployments order by (first_seen, asn *value*); scan indices
            # are monotone in scan date, so they stand in for first_seen.
            deployments.sort(key=lambda d: (d[0], d[1]))
            encoded.append(
                (
                    period_index,
                    tuple((asn_id, runs) for _, _, asn_id, runs in deployments),
                )
            )
        return encoded

    return encode


def decode_domain_maps(
    domain: str,
    encoded: EncodedDomainMaps,
    dataset: ScanDataset,
    periods: tuple[Period, ...],
) -> list[tuple[tuple[str, int], DeploymentMap]]:
    """Materialize object maps from the encoded form via the table pools.

    Each encoded run becomes one :class:`ContentRun`: its content
    resolves once — decoded frozensets are interned on the table per id
    tuple, so a stable deployment's unchanged IP/cert/country sets are
    one shared object — and its scan indices become dates read from the
    period's (memoized) scan calendar.  Decode allocates O(runs)
    objects, not one per scan.
    """
    table = dataset.table
    asns = table.asns
    interned_set = table.interned_set
    by_index = {p.index: p for p in periods}

    maps: list[tuple[tuple[str, int], DeploymentMap]] = []
    for period_index, enc_deployments in encoded:
        period = by_index[period_index]
        dates_in_period = dataset.scan_dates_in(period)
        deployments = [
            Deployment(
                domain,
                asns[asn_id],
                tuple(
                    ContentRun(
                        tuple(map(dates_in_period.__getitem__, indices)),
                        interned_set("ips", ip_ids),
                        interned_set("cert_fps", cert_ids),
                        interned_set("countries", cc_ids),
                    )
                    for indices, ip_ids, cert_ids, cc_ids in runs
                ),
            )
            for asn_id, runs in enc_deployments
        ]
        map_ = DeploymentMap(
            domain=domain,
            period=period,
            deployments=deployments,
            scan_dates_in_period=dates_in_period,
        )
        maps.append(((domain, period_index), map_))
    return maps


def build_domain_maps(
    dataset: ScanDataset,
    domain: str,
    periods: tuple[Period, ...],
) -> list[tuple[tuple[str, int], DeploymentMap]]:
    """Build one domain's maps across all periods, keyed (domain, index).

    Periods with no scan dates (or in which the domain never appears)
    produce no map, mirroring the paper: a deployment map exists only
    for domains with a publicly visible certificate in that period.
    """
    return decode_domain_maps(
        domain, encode_domain_maps(dataset, domain, periods), dataset, periods
    )
