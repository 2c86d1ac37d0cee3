"""Step 1 — building deployment maps (Section 4.1).

A *deployment group* is the observable infrastructure (IPs + the
certificates they return) of one ASN for one domain on one scan date.
Groups of the same ASN clustered longitudinally form a *deployment*;
all deployments of a domain within one six-month period form its
*deployment map*.  A long gap in an ASN's presence splits it into two
deployments, so a provider that disappears for months and returns reads
as two events rather than one continuous deployment.

Maps are built by one columnar kernel in two halves:
:func:`encode_domain_maps_at` clusters a domain's deployments directly
over the dataset's :class:`~repro.scan.table.ScanTable` column slices —
each period is a bisect-found contiguous CSR slice, cells aggregate
interned integer ids, and the result is a compact int-tuple *encoded*
form that worker results and cache entries ship instead of object
graphs — and :func:`decode_domain_maps` materializes the object maps
from it.  :func:`build_domain_maps` runs both halves for one domain.
The row-at-a-time reference algorithm the differential property tests
compare the kernel against lives in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from functools import cached_property

from repro.net.timeline import DateInterval, Period
from repro.scan.dataset import ScanDataset


@dataclass(frozen=True, slots=True)
class DeploymentGroup:
    """One (domain, scan-date, ASN) cell of observable infrastructure."""

    domain: str
    scan_date: date
    asn: int
    ips: frozenset[str]
    cert_fingerprints: frozenset[str]
    countries: frozenset[str]


_group_new = DeploymentGroup.__new__
_group_set = object.__setattr__


def _make_group(
    domain: str,
    scan_date: date,
    asn: int,
    ips: frozenset[str],
    cert_fingerprints: frozenset[str],
    countries: frozenset[str],
) -> DeploymentGroup:
    """Construct a group bypassing the frozen-dataclass ``__init__``.

    The generated init re-enters ``__setattr__`` per field through the
    FrozenInstanceError guard; the decode path builds tens of thousands
    of groups per run, so it pays the plain-slot-store price instead.
    """
    group = _group_new(DeploymentGroup)
    _group_set(group, "domain", domain)
    _group_set(group, "scan_date", scan_date)
    _group_set(group, "asn", asn)
    _group_set(group, "ips", ips)
    _group_set(group, "cert_fingerprints", cert_fingerprints)
    _group_set(group, "countries", countries)
    return group


@dataclass
class Deployment:
    """A deployment group seen longitudinally: one ASN over time.

    The union views (``ips``, ``cert_fingerprints``, ``countries``) and
    ``interval`` are cached on first access: classification, the
    shortlist checks, and inspection all hit them repeatedly, and a
    deployment's groups are fixed once clustering assembled it.
    """

    domain: str
    asn: int
    groups: list[DeploymentGroup] = field(default_factory=list)

    @property
    def first_seen(self) -> date:
        return self.groups[0].scan_date

    @property
    def last_seen(self) -> date:
        return self.groups[-1].scan_date

    @property
    def span_days(self) -> int:
        return (self.last_seen - self.first_seen).days + 1

    @property
    def scan_count(self) -> int:
        return len(self.groups)

    @cached_property
    def ips(self) -> frozenset[str]:
        return frozenset().union(*(g.ips for g in self.groups))

    @cached_property
    def cert_fingerprints(self) -> frozenset[str]:
        return frozenset().union(*(g.cert_fingerprints for g in self.groups))

    @cached_property
    def countries(self) -> frozenset[str]:
        return frozenset().union(*(g.countries for g in self.groups))

    @cached_property
    def interval(self) -> DateInterval:
        return DateInterval(self.first_seen, self.last_seen)

    def dates(self) -> tuple[date, ...]:
        return tuple(g.scan_date for g in self.groups)


@dataclass
class DeploymentMap:
    """All deployments of one domain within one analysis period."""

    domain: str
    period: Period
    deployments: list[Deployment]
    scan_dates_in_period: tuple[date, ...]

    @property
    def visible_dates(self) -> tuple[date, ...]:
        seen = sorted({g.scan_date for d in self.deployments for g in d.groups})
        return tuple(seen)

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
    """:func:`encode_domain_maps_at` by domain name (one index lookup)."""
    index = dataset.table.domain_index(domain)
    if index is None:
        return []
    return encode_domain_maps_at(dataset, index, periods, max_gap_scans)


def encode_domain_maps_at(
    dataset: ScanDataset,
    index: int,
    periods: tuple[Period, ...],
    max_gap_scans: int = 6,
) -> EncodedDomainMaps:
    """Cluster one domain's deployments straight off the column slices.

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
    resolves a domain string at all.
    """
    table = dataset.table
    asn_id_col = table.asn_id
    ip_id_col = table.ip_id
    cert_id_col = table.cert_id
    country_id_col = table.country_id
    asns = table.asns
    id_tuples = table.id_tuples

    encoded: EncodedDomainMaps = []
    for period in periods:
        dates_in_period = dataset.scan_dates_in(period)
        if not dates_in_period:
            continue
        lo, hi = table.period_slice_at(index, period.start, period.end)
        if lo == hi:
            continue
        rows = table.csr_rows[lo:hi].tolist()
        ordinals = table.csr_dates[lo:hi].tolist()
        index_of = {d.toordinal(): i for i, d in enumerate(dates_in_period)}
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
                period.index,
                tuple((asn_id, runs) for _, _, asn_id, runs in deployments),
            )
        )
    return encoded


def decode_domain_maps(
    domain: str,
    encoded: EncodedDomainMaps,
    dataset: ScanDataset,
    periods: tuple[Period, ...],
) -> list[tuple[tuple[str, int], DeploymentMap]]:
    """Materialize object maps from the encoded form via the table pools.

    Each run resolves its content once — decoded frozensets are interned
    on the table per id tuple, so a stable deployment's unchanged
    IP/cert/country sets are one shared object across all its weekly
    groups — then fans out into one group per scan index, with dates
    read straight from the period's (memoized) scan calendar.
    """
    table = dataset.table
    asns = table.asns
    interned_set = table.interned_set
    by_index = {p.index: p for p in periods}

    maps: list[tuple[tuple[str, int], DeploymentMap]] = []
    for period_index, enc_deployments in encoded:
        period = by_index[period_index]
        dates_in_period = dataset.scan_dates_in(period)
        deployments: list[Deployment] = []
        for asn_id, runs in enc_deployments:
            asn = asns[asn_id]
            groups: list[DeploymentGroup] = []
            for indices, ip_ids, cert_ids, cc_ids in runs:
                ips = interned_set("ips", ip_ids)
                fps = interned_set("cert_fps", cert_ids)
                ccs = interned_set("countries", cc_ids)
                for scan_index in indices:
                    groups.append(
                        _make_group(
                            domain,
                            dates_in_period[scan_index],
                            asn,
                            ips,
                            fps,
                            ccs,
                        )
                    )
            deployments.append(Deployment(domain=domain, asn=asn, groups=groups))
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
