"""Dataset serialization: annotated scans and passive DNS.

Certificates are embedded in each scan row (denormalized but
self-contained — the same trade crt.sh makes); a loaded dataset
reconstructs shared :class:`Certificate` objects by fingerprint so that
deployment-map cert-identity comparisons keep working.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path

from repro.dns.records import RRType
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.tls.certificate import Certificate, certificate_from_dict, certificate_to_dict


def save_scan_dataset(dataset: ScanDataset, path: str | Path) -> int:
    """Persist a scan dataset (header line + one line per record).

    Walks the columnar table directly — no record objects are
    materialized, and each interned value is read from its pool.
    """
    table = dataset.table

    def rows():
        yield {"kind": "header", "scan_dates": [d.isoformat() for d in dataset.scan_dates]}
        for row in range(len(table)):
            yield {
                "kind": "record",
                "scan_date": date.fromordinal(table.date_ord[row]).isoformat(),
                "ip": table.ips[table.ip_id[row]],
                "ports": list(table.port_sets[table.ports_id[row]]),
                "asn": table.asns[table.asn_id[row]],
                "country": table.countries[table.country_id[row]],
                "trusted": table.trusted(row),
                "sensitive": table.sensitive(row),
                "names": list(table.name_sets[table.names_id[row]]),
                "base_domains": list(table.base_sets[table.bases_id[row]]),
                "certificate": certificate_to_dict(table.certs[table.cert_id[row]]),
            }

    return write_jsonl(path, rows())


def load_scan_dataset(path: str | Path) -> ScanDataset:
    """Load a scan dataset saved by :func:`save_scan_dataset`.

    Rows append straight into a columnar :class:`~repro.scan.table
    .ScanTable`: every repeated value — IPs, ASNs, countries, port /
    name / base-domain tuples, and certificates (reconstructed once per
    fingerprint) — is interned on the way in, so a loaded dataset shares
    values exactly like the one that was saved.
    """
    from repro.scan.table import ScanTable

    scan_dates: tuple[date, ...] | None = None
    builder = ScanTable.build()
    cert_cache: dict[str, Certificate] = {}
    for row in read_jsonl(path):
        if row["kind"] == "header":
            scan_dates = tuple(date.fromisoformat(d) for d in row["scan_dates"])
            continue
        cert = certificate_from_dict(row["certificate"])
        cert = cert_cache.setdefault(cert.fingerprint, cert)
        builder.append_row(
            date.fromisoformat(row["scan_date"]).toordinal(),
            row["ip"],
            row["asn"],
            cert,
            row["country"],
            tuple(row["ports"]),
            tuple(row["names"]),
            tuple(row["base_domains"]),
            bool(row["trusted"]),
            bool(row["sensitive"]),
        )
    if scan_dates is None:
        raise ValueError(f"{path}: missing header line")
    return ScanDataset.from_table(builder.finish(), scan_dates)


def save_pdns(db: PassiveDNSDatabase, path: str | Path) -> int:
    """Persist a passive-DNS database (one aggregated row per line)."""
    def rows():
        for record in db.all_records():
            yield {
                "rrname": record.rrname,
                "rtype": record.rtype.value,
                "rdata": record.rdata,
                "first_seen": record.first_seen.isoformat(),
                "last_seen": record.last_seen.isoformat(),
                "count": record.count,
            }

    return write_jsonl(path, rows())


def load_pdns(path: str | Path) -> PassiveDNSDatabase:
    """Load a passive-DNS database saved by :func:`save_pdns`.

    The aggregate (first, last, count) is replayed exactly: first-seen
    and last-seen observations plus synthetic middle hits.
    """
    db = PassiveDNSDatabase()
    for row in read_jsonl(path):
        rtype = RRType(row["rtype"])
        first = date.fromisoformat(row["first_seen"])
        last = date.fromisoformat(row["last_seen"])
        count = int(row["count"])
        db.add_observation(row["rrname"], rtype, row["rdata"], first)
        if count > 1:
            db.add_observation(row["rrname"], rtype, row["rdata"], last)
        for _ in range(count - 2):
            db.add_observation(row["rrname"], rtype, row["rdata"], last)
    return db
