"""Canonical golden-report serialization for regression pinning.

A golden file is the canonical JSON rendering of one
:class:`PipelineReport` — every funnel counter, finding, classification,
shortlist entry, inspection verdict, and pivot, with dates as ISO
strings, enums by name, and every unordered collection sorted.  Two
reports are behaviorally identical iff their encodings are
byte-identical, which is exactly what ``tests/test_golden_reports.py``
asserts for the pinned seeds across backends and the empty fault plan.

The same canonical-encoding discipline backs the stage cache:
:func:`canonical_json` and :func:`canonical_digest` are the byte-stable
value encoder ``repro.cache`` fingerprints run inputs with.

Regenerate after an *intentional* behavior change with::

    python -m repro.cli golden --update
"""

from __future__ import annotations

import hashlib
import json
from datetime import date
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineReport

GOLDEN_SCHEMA = "repro.io.golden-report/1"


def canonical_json(value: Any) -> str:
    """The canonical compact JSON encoding of a JSON-safe value.

    Keys are sorted and separators fixed, so two structurally equal
    values — regardless of dict insertion order — encode to identical
    bytes.  This is the stable-hash substrate for cache fingerprints.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def canonical_digest(value: Any, digest_size: int = 16) -> str:
    """A hex blake2b digest of a value's canonical JSON encoding."""
    return hashlib.blake2b(
        canonical_json(value).encode("utf-8"), digest_size=digest_size
    ).hexdigest()


def golden_filename(seed: int) -> str:
    return f"paper_seed{seed}.json"


def golden_faults_filename(seed: int) -> str:
    """Pinned report of the fault-degraded variant of one seed's study."""
    return f"paper_seed{seed}_faults.json"


def _iso(value: date | None) -> str | None:
    return value.isoformat() if value is not None else None


def _name(value: Enum | None) -> str | None:
    return value.name if value is not None else None


def _deployment(deployment) -> dict[str, Any]:
    return {
        "asn": deployment.asn,
        "first_seen": _iso(deployment.first_seen),
        "last_seen": _iso(deployment.last_seen),
        "n_groups": deployment.scan_count,
        "ips": sorted(deployment.ips),
        "countries": sorted(deployment.countries),
    }


def _finding(finding) -> dict[str, Any]:
    return {
        "domain": finding.domain,
        "verdict": _name(finding.verdict),
        "detection": _name(finding.detection),
        "first_evidence": _iso(finding.first_evidence),
        "subdomain": finding.subdomain,
        "pdns_corroborated": finding.pdns_corroborated,
        "ct_corroborated": finding.ct_corroborated,
        "attacker_ips": list(finding.attacker_ips),
        "attacker_asn": finding.attacker_asn,
        "attacker_cc": finding.attacker_cc,
        "attacker_ns": list(finding.attacker_ns),
        "victim_asns": list(finding.victim_asns),
        "victim_ccs": list(finding.victim_ccs),
        "crtsh_id": finding.crtsh_id,
        "issuer_ca": finding.issuer_ca,
        "notes": list(finding.notes),
    }


def _classification(key, classification) -> dict[str, Any]:
    domain, period_index = key
    return {
        "domain": domain,
        "period_index": period_index,
        "kind": classification.kind.name,
        "subpatterns": [s.name for s in classification.subpatterns],
        "stable": [_deployment(d) for d in classification.stable],
        "transitions": [_deployment(d) for d in classification.transitions],
        "transients": [_deployment(d) for d in classification.transients],
    }


def _shortlist_entry(entry) -> dict[str, Any]:
    return {
        "domain": entry.domain,
        "period_index": entry.period_index,
        "transient": _deployment(entry.transient),
        "subpattern": entry.subpattern.name,
        "truly_anomalous": entry.truly_anomalous,
        "sensitive_names": list(entry.sensitive_names),
        "n_transient_records": len(entry.transient_records),
    }


def _inspection(result) -> dict[str, Any]:
    evidence = result.evidence
    return {
        "domain": result.entry.domain,
        "period_index": result.entry.period_index,
        "verdict": _name(result.verdict),
        "detection": _name(result.detection),
        "window": {
            "start": _iso(evidence.window.start),
            "end": _iso(evidence.window.end),
        },
        "n_ns_changes": len(evidence.ns_changes),
        "n_a_redirects": len(evidence.a_redirects),
        "n_ct_entries": len(evidence.ct_entries),
        "stale_certificate": evidence.stale_certificate,
        "notes": list(evidence.notes),
        "malicious_crtsh_id": (
            result.malicious_cert.crtsh_id if result.malicious_cert else None
        ),
        "attacker_ips": sorted(result.attacker_ips),
        "attacker_ns": sorted(result.attacker_ns),
        "pending_t1_star": result.pending_t1_star,
    }


def _pivot(pivot) -> dict[str, Any]:
    return {
        "domain": pivot.domain,
        "detection": pivot.detection.name,
        "verdict": _name(pivot.verdict),
        "via": pivot.via,
        "n_pdns_rows": len(pivot.pdns_rows),
        "malicious_crtsh_id": (
            pivot.malicious_cert.crtsh_id if pivot.malicious_cert else None
        ),
        "attacker_ips": sorted(pivot.attacker_ips),
        "attacker_ns": sorted(pivot.attacker_ns),
    }


def report_to_dict(report: PipelineReport) -> dict[str, Any]:
    """The report as a canonical, JSON-safe dictionary."""
    funnel = report.funnel
    return {
        "schema": GOLDEN_SCHEMA,
        "funnel": {
            **funnel.counts(),
            "prune_reasons": dict(sorted(funnel.prune_reasons.items())),
        },
        "findings": [_finding(f) for f in report.findings],
        "classifications": [
            _classification(key, c)
            for key, c in sorted(report.classifications.items())
        ],
        "shortlist": [_shortlist_entry(e) for e in report.shortlist],
        "inspections": [_inspection(r) for r in report.inspections],
        "pivots": [_pivot(p) for p in report.pivots],
        "attacker_ips": sorted(report.attacker_ips),
        "attacker_ns": sorted(report.attacker_ns),
    }


def encode_report(report: PipelineReport) -> str:
    """The canonical byte-comparable text encoding of a report:
    ``json.dumps(report_to_dict(report), sort_keys=True, indent=1)``."""
    out: list[str] = []
    _write_indented(report_to_dict(report), "\n", out)
    out.append("\n")
    return "".join(out)


def _write_indented(value: Any, indent: str, out: list[str]) -> None:
    """Append ``json.dumps(value, sort_keys=True, indent=1)`` for a report
    dict's value types (``indent``: the newline and indentation ``value``
    starts at) in about half ``json``'s time, which is pure Python here."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    else:
        inner = indent + " "
        if isinstance(value, dict):
            items = [(encode_basestring_ascii(k) + ": ", value[k]) for k in sorted(value)]
        else:
            items = [("", item) for item in value]
        separator = "{" if isinstance(value, dict) else "["
        for prefix, item in items:
            out.append(separator + inner + prefix)
            _write_indented(item, inner, out)
            separator = ","
        out.append(indent + ("}" if isinstance(value, dict) else "]"))


def report_digest(report: PipelineReport, digest_size: int = 16) -> str:
    """A fast drift digest of a report for the run ledger.

    Byte-level identity is the golden wall's job
    (:func:`encode_report` against the pinned files); this digest exists
    so every ledger record can cheaply answer "did the report change
    since the last run?" without re-encoding the full canonical JSON,
    which costs tens of milliseconds on paper-scale reports and would
    blow the telemetry layer's <2% overhead budget.

    It hashes the funnel counters, prune reasons, and the full canonical
    rendering of every outcome-bearing section — findings, shortlist,
    inspections, pivots, attacker indicators — plus one line per
    classification (domain, period, kind, deployment counts), read off
    the classification codes so no map is decoded.
    Deployment internals and subpattern labels are summarized rather
    than serialized: drift in them surfaces through the shortlist and
    inspection sections, which carry them forward and are hashed in
    full.  Two behaviorally identical runs — across backends, cache
    temperatures, and processes — produce the same digest.
    """
    from repro.core.patterns import ENCODED_KINDS

    funnel = report.funnel
    h = hashlib.blake2b(digest_size=digest_size)
    # One line per classification, the digest's O(maps) term, read off
    # the codes: the kind (``_name_`` skips the enum ``name`` descriptor)
    # and the lengths of the stable/transition/transient positions.
    h.update(
        "\n".join(
            f"{domain}|{period}|{ENCODED_KINDS[encoded[0]]._name_}"
            f"|{len(encoded[2])},{len(encoded[3])},{len(encoded[4])}"
            for (domain, period), encoded in sorted(
                report.classifications.encoded_items()
            )
        ).encode("utf-8")
    )
    payload = {
        "funnel": funnel.counts(),
        "prune": dict(sorted(funnel.prune_reasons.items())),
        "findings": [_finding(f) for f in report.findings],
        "shortlist": [_shortlist_entry(e) for e in report.shortlist],
        "inspections": [_inspection(r) for r in report.inspections],
        "pivots": [_pivot(p) for p in report.pivots],
        "attacker_ips": sorted(report.attacker_ips),
        "attacker_ns": sorted(report.attacker_ns),
    }
    h.update(canonical_json(payload).encode("utf-8"))
    return h.hexdigest()


def write_golden(report: PipelineReport, path: str | Path) -> None:
    Path(path).write_text(encode_report(report))


def read_golden(path: str | Path) -> str:
    return Path(path).read_text()
