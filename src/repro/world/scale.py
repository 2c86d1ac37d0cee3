"""Synthetic large-population worlds, streamed straight into columns.

The behavioral simulator (:mod:`repro.world.world`) builds worlds as
object graphs — hosts, CAs, resolvers — which is the right tool for the
paper's scenarios but tops out around thousands of domains.  Scale
benchmarking needs populations of 10\\ :sup:`5`–10\\ :sup:`6` registered
domains, where even one short-lived record object per row would dominate
the generator's memory.  This module therefore streams rows directly
into a :class:`~repro.scan.table._TableBuilder` — interned ids and typed
arrays from the first row, never an ``AnnotatedScanRecord`` — and hands
the result over as an ordinary :class:`PipelineInputs` bundle (or writes
it straight to a segment directory).

Population shape, chosen to stress exactly the paths the segment data
plane optimizes:

* ``n_active`` domains (default 200) scan every week of the single
  analysis period (2019 H1) with stable deployments — these flow
  through the full funnel;
* the remaining ``n_domains - n_active`` background domains appear in
  two scans in November 2019, *outside* the analysis period — their
  deployment maps encode to empty and are dropped by the deployment
  stage, so they exercise the million-entry domain pool, the CSR
  index, and the shard scheduler without inflating the funnel tail.

Background rows draw from small shared pools (certificates, IPs, name
sets), so the only per-background-domain payload is the domain string
itself and its one-element base tuple — the pools a segment keeps
on-disk behind lazy views.  Everything is deterministic in ``(seed,
n_domains, n_active)``: same arguments, byte-identical segments.
"""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

from repro.ct.log import CTLog
from repro.ipintel.as2org import AS2Org
from repro.net.timeline import scan_dates_every, study_periods
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.scan.table import ScanTable
from repro.tls.certificate import Certificate
from repro.dns.records import RRType

#: The single analysis period every scale world uses.
SCALE_START = date(2019, 1, 1)
SCALE_END = date(2019, 6, 30)

#: Shared background pools: small by construction so the per-domain
#: payload of a million-domain world is the domain string alone.
_N_SHARED_CERTS = 64
_N_SHARED_IPS = 1024

_BACKGROUND_DATES = (date(2019, 11, 6), date(2019, 11, 13))


def _active_domain(i: int) -> str:
    return f"active-{i:05d}.example.com"


def _background_domain(i: int) -> str:
    return f"bg-{i:07d}.example.net"


def _shared_certs(seed: int) -> list[Certificate]:
    certs = []
    for k in range(_N_SHARED_CERTS):
        name = f"shared-{seed}-{k:03d}.example.org"
        certs.append(
            Certificate(
                serial=10_000 + k,
                common_name=name,
                sans=(name,),
                issuer="Scale Test CA",
                not_before=date(2018, 1, 1),
                not_after=date(2020, 1, 1),
            )
        )
    return certs


def scale_world(
    n_domains: int, *, n_active: int = 200, seed: int = 0
):
    """A deterministic ``n_domains``-population input bundle.

    Returns a :class:`repro.core.pipeline.PipelineInputs` whose scan
    table was built column-first (no row objects).  ``n_active`` is
    clamped to ``n_domains``.
    """
    from repro.core.pipeline import PipelineInputs

    if n_domains < 1:
        raise ValueError("n_domains must be >= 1")
    n_active = min(n_active, n_domains)
    n_background = n_domains - n_active

    scan_dates = scan_dates_every(SCALE_START, date(2019, 12, 31), 7)
    periods = study_periods(SCALE_START, SCALE_END)
    active_dates = [d for d in scan_dates if d <= SCALE_END]

    certs = _shared_certs(seed)
    shared_ips = [
        f"198.{18 + (k >> 8) % 2}.{(k >> 8) % 256}.{k % 256}"
        for k in range(_N_SHARED_IPS)
    ]

    builder = ScanTable.build()

    # Active domains: one row per weekly scan of the analysis period,
    # stable deployment (same ip/asn/cert every week).
    for i in range(n_active):
        domain = _active_domain(i)
        ip = f"203.0.{(i >> 8) % 256}.{i % 256}"
        asn = 64500 + (i + seed) % 8
        cert = certs[(i + seed) % _N_SHARED_CERTS]
        names = (domain, f"www.{domain}")
        bases = (domain,)
        for day in active_dates:
            builder.append_row(
                day.toordinal(), ip, asn, cert, "US",
                (443,), names, bases, True, i % 10 == 0,
            )

    # Background domains: two rows each, outside the analysis period,
    # drawing every value except the domain itself from shared pools.
    for i in range(n_background):
        domain = _background_domain(i)
        ip = shared_ips[(i + seed) % _N_SHARED_IPS]
        asn = 64600 + i % 16
        cert = certs[i % _N_SHARED_CERTS]
        bases = (domain,)
        for day in _BACKGROUND_DATES:
            builder.append_row(
                day.toordinal(), ip, asn, cert, "DE",
                (443,), (), bases, True, False,
            )

    table = builder.finish()
    scan = ScanDataset.from_table(table, tuple(scan_dates))

    pdns = PassiveDNSDatabase()
    for i in range(n_active):
        domain = _active_domain(i)
        ip = f"203.0.{(i >> 8) % 256}.{i % 256}"
        for day in (SCALE_START, SCALE_END):
            pdns.add_observation(domain, RRType.A, ip, day)
            pdns.add_observation(
                domain, RRType.NS, f"ns{1 + i % 2}.scale-dns.example.org", day
            )

    log = CTLog(name="scale-ct-log")
    for k, cert in enumerate(certs):
        log.submit(cert, date(2018, 1, 2) + timedelta(days=k))
    from repro.ct.crtsh import CrtShService

    crtsh = CrtShService([log], asof=SCALE_END + timedelta(days=365))

    as2org = AS2Org()
    for offset in range(8):
        as2org.assign(64500 + offset, f"org-active-{offset}", f"Active Org {offset}")
    for offset in range(16):
        as2org.assign(64600 + offset, f"org-bg-{offset}", f"Background Org {offset}")

    return PipelineInputs(
        scan=scan,
        pdns=pdns,
        crtsh=crtsh,
        as2org=as2org,
        periods=periods,
    )


def churn_count(n_active: int, fraction: float) -> int:
    """How many of ``n_active`` domains a delta of ``fraction`` churns:
    the product floored once float error is absorbed, so
    ``fraction=k/n_active`` picks k (``3 / 10_000 * 10_000`` is
    2.9999999999999996), and at least one."""
    count = int(n_active * fraction)
    if (count + 1) / n_active <= fraction:
        count += 1
    return max(1, min(n_active, count))


def make_delta(inputs, *, seed: int = 0, fraction: float = 0.01, epoch: int = 1):
    """A deterministic epoch delta over a scale world.

    Picks :func:`churn_count` active domains (evenly strided, rotated by
    ``(seed, epoch)``) and gives each one an epoch of churn:

    * a **deployment transition** — a new scan row on the last in-period
      scan date with a fresh IP, rotated ASN, and a delta-specific
      certificate (so the domain's deployment map genuinely changes);
    * a **new out-of-period scan date** (one week per epoch past the
      base calendar) with the same new deployment, so the overlay's
      calendar-extension path is exercised without shifting any study
      period's scan indices;
    * **pDNS churn** — an A observation to the new IP and an NS flip;
    * a **CT entry** for the delta certificate (crt.sh id pre-stamped,
      so split-log and merged-log layouts answer identically).

    Deterministic in ``(world, seed, fraction, epoch)``: same arguments,
    byte-identical delta files.
    """
    from repro.epochs.delta import EpochDelta

    table = inputs.scan.table

    def is_active(i: int) -> bool:
        return table.domain_index(_active_domain(i)) is not None

    if not is_active(0):
        raise ValueError("not a scale world: no active-* domains found")
    # Count the actives by probing the sorted domain pool (exponential
    # then binary search) — never decoding the full million-name pool.
    hi = 1
    while is_active(hi):
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if is_active(mid):
            lo = mid + 1
        else:
            hi = mid
    n_active = lo

    n_pick = churn_count(n_active, fraction)
    offset = (seed * 7 + epoch * 3) % n_active
    picked = sorted({(offset + (k * n_active) // n_pick) % n_active for k in range(n_pick)})

    last_active = max(d for d in inputs.scan.scan_dates if d <= SCALE_END)
    new_day = date(2020, 1, 7) + timedelta(days=7 * (epoch - 1))

    rows = []
    pdns_observations = []
    ct_entries = []
    for k, i in enumerate(picked):
        domain = _active_domain(i)
        new_ip = f"203.{1 + epoch % 8}.{(i >> 8) % 256}.{i % 256}"
        asn = 64500 + (i + seed + epoch) % 8
        cn = f"delta-{seed}-{epoch}-{k:03d}.example.org"
        cert = Certificate(
            serial=20_000 + epoch * 100 + k,
            common_name=cn,
            sans=(cn, domain),
            issuer="Delta CA",
            not_before=date(2019, 1, 1),
            not_after=date(2020, 12, 31),
            crtsh_id=200_000_000 + epoch * 10_000 + k,
        )
        names = (domain, f"www.{domain}")
        for day in (last_active, new_day):
            rows.append(
                (
                    day.toordinal(), new_ip, asn, cert, "US",
                    (443,), names, (domain,), True, i % 10 == 0,
                )
            )
        pdns_observations.append((domain, RRType.A, new_ip, last_active))
        pdns_observations.append(
            (
                domain,
                RRType.NS,
                f"ns{1 + (i + epoch) % 2}.scale-dns.example.org",
                new_day,
            )
        )
        ct_entries.append((cert, date(2019, 12, 1) + timedelta(days=k % 20)))

    return EpochDelta(
        epoch=epoch,
        label=f"scale-delta-seed{seed}-epoch{epoch}",
        scan_rows=tuple(rows),
        scan_dates=(new_day,),
        pdns_observations=tuple(pdns_observations),
        ct_entries=tuple(ct_entries),
    )


def write_scale_segments(
    n_domains: int,
    directory: str | Path,
    *,
    n_active: int = 200,
    seed: int = 0,
) -> dict[str, Path]:
    """Generate a scale world and lay it out as a segment directory."""
    from repro.segments.inputs import write_segments

    inputs = scale_world(n_domains, n_active=n_active, seed=seed)
    return write_segments(inputs, directory)


__all__ = [
    "SCALE_END",
    "SCALE_START",
    "make_delta",
    "scale_world",
    "write_scale_segments",
]
