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
each period is a bisect-found contiguous CSR slice, clustered one scan
date at a time, and the result is a compact int-tuple *encoded* form
that worker results and cache entries ship instead of object graphs —
and :func:`decode_domain_maps` materializes the object maps from it,
one :class:`ContentRun` per encoded run.  :func:`build_domain_maps`
runs both halves for one domain.  The row-at-a-time reference map
builder and encoder the differential property tests compare against
live in ``tests/reference.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from operator import itemgetter
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
    the domain's CSR rows, one ``itemgetter`` per column gathers their
    ``(asn, ip, cert, country)`` id keys, and clustering compares
    scan-calendar indices.  The date-sorted slice splits by scan date,
    and the work grows with the changes in the domain's history, not
    with its rows: a date whose keys equal the previous date's, within
    ``max_gap_scans`` of it, only appends its scan index to the runs
    that date extended.  Any other date builds its cells (plain-int ASN
    keys), interns their contents and advances each ASN's run state in
    one pass: a gap closes the deployment, new content the run, and
    equal content (interned, so an ``is`` check) extends it.  The output
    is the compact encoded form; :func:`decode_domain_maps` materializes
    the object maps the rest of the pipeline consumes.

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
    columns = (table.asn_id, table.ip_id, table.cert_id, table.country_id)
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
            n = hi - lo
            ordinals = csr_dates[lo:hi].tolist()
            get = itemgetter(*csr_rows[lo:hi].tolist())
            ids = [get(column) for column in columns]
            # A one-row slice's itemgetter returns the ids themselves.
            keys = list(zip(*ids)) if n > 1 else [tuple(ids)]
            # asn_id -> [first scan index, closed runs, open run's scan
            # indices, open run's content]; the open run's last index is
            # the ASN's previous scan.
            state: dict[int, list] = {}
            deployments: list[tuple[int, int, int, tuple[EncodedRun, ...]]] = []
            extended: list[list[int]] = []
            last_keys, last_index, i = None, 0, 0
            while i < n:
                ordinal = ordinals[i]
                j = i + 1
                if j < n and ordinals[j] == ordinal:
                    j = bisect_right(ordinals, ordinal, j)
                scan_index = index_of[ordinal]
                date_keys = keys[i:j]
                i = j
                repeats = date_keys == last_keys and scan_index - last_index <= max_gap_scans
                last_keys, last_index = date_keys, scan_index
                if repeats:
                    for indices in extended:
                        indices.append(scan_index)
                    continue
                cells: dict[int, tuple[set[int], set[int], set[int]]] = {}
                for asn_id, ip, cert, cc in date_keys:
                    cell = cells.get(asn_id)
                    if cell is None:
                        cells[asn_id] = ({ip}, {cert}, {cc})
                    else:
                        cell[0].add(ip)
                        cell[1].add(cert)
                        cell[2].add(cc)
                extended = []
                for asn_id, (ips, certs, ccs) in cells.items():
                    content = (
                        _canonical_ids(ips, id_tuples),
                        _canonical_ids(certs, id_tuples),
                        _canonical_ids(ccs, id_tuples),
                    )
                    content = id_tuples.setdefault(content, content)
                    run = state.get(asn_id)
                    if run is None:
                        run = state[asn_id] = [scan_index, [], [scan_index], content]
                    elif scan_index - run[2][-1] > max_gap_scans:
                        run[1].append((tuple(run[2]),) + run[3])
                        deployments.append((run[0], asns[asn_id], asn_id, tuple(run[1])))
                        run[:] = [scan_index, [], [scan_index], content]
                    elif content is run[3]:
                        run[2].append(scan_index)
                    else:
                        run[1].append((tuple(run[2]),) + run[3])
                        run[2:] = [[scan_index], content]
                    extended.append(run[2])
            for asn_id, (first_index, runs, indices, content) in state.items():
                runs.append((tuple(indices),) + content)
                deployments.append((first_index, asns[asn_id], asn_id, tuple(runs)))
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
