"""Persistence for the corroboration sources: CT log and AS2Org.

A saved study needs more than scans and pDNS — inspection consults
crt.sh and the shortlist consults the AS-to-Organization mapping.  The
CT export carries each logged certificate with its log timestamp and
revocation fact; loading reconstructs a CTLog + RevocationRegistry +
CrtShService triple that answers queries identically.
"""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

from repro.ct.crtsh import CrtShService
from repro.ct.log import CTLog
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.ipintel.as2org import AS2Org
from repro.tls.certificate import certificate_from_dict, certificate_to_dict
from repro.tls.revocation import RevocationMechanism, RevocationRegistry, RevocationStatus


def save_ct(crtsh_source: CTLog, revocations: RevocationRegistry, path: str | Path) -> int:
    """Persist a CT log with per-certificate revocation facts."""
    def rows():
        for entry in crtsh_source.entries():
            cert = entry.certificate
            mechanism = revocations.mechanism_of(cert.issuer)
            live = revocations.live_status(cert, cert.not_after)
            yield {
                "logged_at": entry.timestamp.isoformat(),
                "revoked": live is RevocationStatus.REVOKED,
                "mechanism": mechanism.value,
                "certificate": certificate_to_dict(cert),
            }

    return write_jsonl(path, rows())


def load_ct(
    path: str | Path, asof: date | None = None
) -> tuple[CTLog, RevocationRegistry, CrtShService]:
    """Reconstruct the CT stack from :func:`save_ct` output."""
    log = CTLog()
    revocations = RevocationRegistry()
    latest = date(1970, 1, 1)
    for row in read_jsonl(path):
        cert = certificate_from_dict(row["certificate"])
        logged_at = date.fromisoformat(row["logged_at"])
        latest = max(latest, cert.not_after)
        revocations.set_mechanism(cert.issuer, RevocationMechanism(row["mechanism"]))
        logged, _sct = log.submit(cert, logged_at)
        if row["revoked"]:
            revocations.revoke(logged, on=min(cert.not_after, logged_at + timedelta(days=30)))
    crtsh = CrtShService([log], revocations, asof=asof or latest + timedelta(days=365))
    return log, revocations, crtsh


def save_as2org(mapping: AS2Org, path: str | Path) -> int:
    """Persist an AS-to-Organization mapping."""
    rows = []
    named_orgs: set[str] = set()
    for asn, org in mapping.items():
        name = mapping.org_name(org) if org not in named_orgs else None
        rows.append({"asn": asn, "org": org, "name": name})
        named_orgs.add(org)
    return write_jsonl(path, rows)


def load_as2org(path: str | Path) -> AS2Org:
    mapping = AS2Org()
    for row in read_jsonl(path):
        mapping.assign(row["asn"], row["org"], row.get("name"))
    return mapping
