"""ASCII rendering of deployment maps (the Figure 2-5 visual language).

Each deployment is one row; columns are the period's weekly scan dates.
A filled cell means the ASN had observable infrastructure for the domain
in that scan; distinct certificates rotate through distinct glyphs so a
rollover or a new-certificate transient is visible at a glance.
"""

from __future__ import annotations

from repro.core.deployment import DeploymentMap
from repro.core.patterns import Classification
from repro.ipintel.asnames import as_name

_GLYPHS = "#o*+x%@&"


def render_deployment_map(map_: DeploymentMap, label_width: int = 30) -> str:
    """Render one deployment map as an ASCII timeline."""
    dates = map_.scan_dates_in_period
    index_of = {d: i for i, d in enumerate(dates)}

    glyph_of_cert: dict[str, str] = {}

    def glyph_for(fingerprints: frozenset[str]) -> str:
        key = min(fingerprints) if fingerprints else "?"
        if key not in glyph_of_cert:
            glyph_of_cert[key] = _GLYPHS[len(glyph_of_cert) % len(_GLYPHS)]
        return glyph_of_cert[key]

    header = (
        f"{map_.domain} — {map_.period.label} "
        f"({len(dates)} weekly scans, presence {map_.presence:.0%})"
    )
    lines = [header, "-" * max(len(header), label_width + len(dates) + 2)]
    for deployment in map_.deployments:
        row = [" "] * len(dates)
        for run in deployment.runs:
            glyph = glyph_for(run.cert_fingerprints)
            for day in run.dates:
                row[index_of[day]] = glyph
        countries = "/".join(sorted(deployment.countries))
        label = f"AS{deployment.asn} {as_name(deployment.asn)} [{countries}]"
        lines.append(f"{label[:label_width]:<{label_width}} |{''.join(row)}|")
    if glyph_of_cert:
        legend = ", ".join(
            f"{glyph}=cert {fp[:8]}" for fp, glyph in glyph_of_cert.items()
        )
        lines.append(f"{'':<{label_width}}  certs: {legend}")
    return "\n".join(lines)


def render_classification(classification: Classification) -> str:
    """Deployment map plus the classifier's verdict."""
    rendered = render_deployment_map(classification.map)
    subpatterns = ", ".join(p.value for p in classification.subpatterns) or "-"
    return (
        f"{rendered}\n"
        f"classified: {classification.kind.value.upper()} "
        f"(patterns: {subpatterns}; "
        f"stable={len(classification.stable)}, "
        f"transitions={len(classification.transitions)}, "
        f"transients={len(classification.transients)})"
    )
