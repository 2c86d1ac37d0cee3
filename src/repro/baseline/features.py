"""Per-domain features for the classifier baseline.

Features are computed from the same third-party view the pipeline uses
(scan dataset + passive DNS), in the spirit of the pDNS-feature
classifiers the paper cites: deployment churn, geographic and AS spread,
certificate churn and freshness, sensitive naming, and short-lived
resolution behaviour.
"""

from __future__ import annotations

from repro.core.deployment import build_domain_maps
from repro.net.names import is_sensitive_name
from repro.net.timeline import Period
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset

FEATURE_NAMES: tuple[str, ...] = (
    "n_deployments",
    "n_asns",
    "n_countries",
    "n_certificates",
    "n_issuers",
    "min_cert_age_at_first_sight",
    "has_sensitive_san",
    "presence",
    "min_deployment_span_days",
    "n_short_pdns_rows",
    "n_ns_values",
    "max_ips_per_scan",
)


def domain_features(
    domain: str,
    scan: ScanDataset,
    pdns: PassiveDNSDatabase,
    period: Period,
) -> list[float]:
    """Feature vector for one (domain, period)."""
    records = [r for r in scan.records_for(domain) if period.contains(r.scan_date)]
    # No map means no visibility in the period: no deployments, presence 0.
    maps = build_domain_maps(scan, domain, (period,))
    deployments = maps[0][1].deployments if maps else []
    presence = maps[0][1].presence if maps else 0.0

    certs = {r.certificate.fingerprint: r.certificate for r in records}
    issuers = {c.issuer for c in certs.values()}
    countries = {r.country for r in records}
    asns = {r.asn for r in records}

    min_cert_age = 365.0
    for record in records:
        age = (record.scan_date - record.certificate.not_before).days
        min_cert_age = min(min_cert_age, float(age))
    if not records:
        min_cert_age = 0.0

    sensitive = any(
        is_sensitive_name(name) for r in records for name in r.names
    )

    min_span = 183.0
    for deployment in deployments:
        min_span = min(min_span, float(deployment.span_days))
    if not deployments:
        min_span = 0.0

    pdns_rows = pdns.query_domain(domain, period.interval())
    short_rows = sum(1 for r in pdns_rows if r.span_days <= 30)
    ns_values = len({r.rdata for r in pdns_rows if r.rtype.value == "NS"})

    per_scan_ips: dict = {}
    for record in records:
        per_scan_ips.setdefault(record.scan_date, set()).add(record.ip)
    max_ips = max((len(v) for v in per_scan_ips.values()), default=0)

    return [
        float(len(deployments)),
        float(len(asns)),
        float(len(countries)),
        float(len(certs)),
        float(len(issuers)),
        min_cert_age,
        1.0 if sensitive else 0.0,
        presence,
        min_span,
        float(short_rows),
        float(ns_values),
        float(max_ips),
    ]
