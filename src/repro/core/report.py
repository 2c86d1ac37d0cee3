"""Findings and report rendering.

A :class:`DomainFinding` carries everything one row of the paper's
Table 2 / Table 3 reports: how the domain was identified, when, the
corroboration flags, and both sides' infrastructure.  Rendering helpers
produce aligned text tables for the examples and benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import date

from repro.core.types import DetectionType, Verdict
from repro.obs.provenance import FunnelTransition


@dataclass
class DomainFinding:
    """One identified victim domain."""

    domain: str
    verdict: Verdict
    detection: DetectionType | None
    first_evidence: date | None
    subdomain: str = ""
    pdns_corroborated: bool = False
    ct_corroborated: bool = False
    attacker_ips: tuple[str, ...] = ()
    attacker_asn: int | None = None
    attacker_cc: str | None = None
    attacker_ns: tuple[str, ...] = ()
    victim_asns: tuple[int, ...] = ()
    victim_ccs: tuple[str, ...] = ()
    crtsh_id: int = 0
    issuer_ca: str = ""
    notes: tuple[str, ...] = ()
    #: The decision provenance trail: one typed transition per funnel
    #: step this domain passed through, each citing the scan / pDNS /
    #: CT / routing evidence that drove it (``repro-hunt explain``).
    provenance: tuple[FunnelTransition, ...] = ()

    @property
    def hijack_month(self) -> str:
        if self.first_evidence is None:
            return "?"
        return self.first_evidence.strftime("%b'%y")


@dataclass
class FunnelStats:
    """The Section 4.2-4.4 funnel, measured on this run's data."""

    n_domains: int = 0
    n_maps: int = 0
    n_stable: int = 0
    n_transition: int = 0
    n_transient: int = 0
    n_noisy: int = 0
    n_shortlisted: int = 0
    n_truly_anomalous: int = 0
    n_worth_examining: int = 0
    n_t1_hijacked: int = 0
    n_t2_hijacked: int = 0
    n_t1_star: int = 0
    n_pivot_ip: int = 0
    n_pivot_ns: int = 0
    n_targeted: int = 0
    prune_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def n_hijacked(self) -> int:
        return self.n_t1_hijacked + self.n_t2_hijacked + self.n_t1_star + self.n_pivot_ip + self.n_pivot_ns

    def counts(self) -> dict[str, int]:
        """Every counter by name, ``n_hijacked`` included."""
        counts = {f.name: getattr(self, f.name) for f in fields(self)}
        del counts["prune_reasons"]
        return {**counts, "n_hijacked": self.n_hijacked}

    def fraction(self, count: int) -> float:
        return count / self.n_maps if self.n_maps else 0.0

    def rows(self) -> list[tuple[str, int, float]]:
        return [
            ("stable", self.n_stable, self.fraction(self.n_stable)),
            ("transition", self.n_transition, self.fraction(self.n_transition)),
            ("transient", self.n_transient, self.fraction(self.n_transient)),
            ("noisy", self.n_noisy, self.fraction(self.n_noisy)),
        ]


def _mark(flag: bool) -> str:
    return "Y" if flag else "x"


def format_findings_table(findings: list[DomainFinding]) -> str:
    """Render findings in the layout of the paper's Table 2 / Table 3."""
    header = (
        f"{'Type':<6} {'Hij.':<7} {'CC':<3} {'Domain':<26} {'Sub.':<11} "
        f"{'pDNS':<5} {'crt':<4} {'IP':<16} {'ASN':<7} {'CC':<3} "
        f"{'Victim ASNs':<20} {'CCs'}"
    )
    lines = [header, "-" * len(header)]
    for finding in findings:
        detection = finding.detection.value if finding.detection else "-"
        attacker_ip = finding.attacker_ips[0] if finding.attacker_ips else "-"
        lines.append(
            f"{detection:<6} {finding.hijack_month:<7} "
            f"{(finding.victim_ccs[0] if finding.victim_ccs else '--'):<3} "
            f"{finding.domain:<26} {(finding.subdomain or '-'):<11} "
            f"{_mark(finding.pdns_corroborated):<5} {_mark(finding.ct_corroborated):<4} "
            f"{attacker_ip:<16} {str(finding.attacker_asn or '-'):<7} "
            f"{(finding.attacker_cc or '--'):<3} "
            f"{str(list(finding.victim_asns) or '-'):<20} "
            f"{list(finding.victim_ccs) or '-'}"
        )
    return "\n".join(lines)


def format_funnel(stats: FunnelStats) -> str:
    """Render the map-classification and verdict funnel."""
    lines = [
        f"deployment maps: {stats.n_maps} (over {stats.n_domains} domains)",
    ]
    for name, count, fraction in stats.rows():
        lines.append(f"  {name:<11} {count:>8}  ({fraction:7.2%})")
    lines.append(f"shortlisted:      {stats.n_shortlisted}")
    lines.append(f"  truly anomalous: {stats.n_truly_anomalous}")
    lines.append(f"worth examining:  {stats.n_worth_examining}")
    lines.append(
        "hijacked: "
        f"{stats.n_hijacked} (T1={stats.n_t1_hijacked}, T2={stats.n_t2_hijacked}, "
        f"T1*={stats.n_t1_star}, P-IP={stats.n_pivot_ip}, P-NS={stats.n_pivot_ns})"
    )
    lines.append(f"targeted: {stats.n_targeted}")
    if stats.prune_reasons:
        lines.append("prunes:")
        for reason, count in sorted(stats.prune_reasons.items()):
            lines.append(f"  {reason:<22} {count}")
    return "\n".join(lines)
