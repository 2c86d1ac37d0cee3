"""Pattern gallery: the canonical deployment-map shapes of Figures 3-5.

Builds one synthetic domain per representative pattern — the stable
shapes S1-S4, the transitions X1-X3, the suspicious transients T1/T2,
and a noisy mover — renders each as an ASCII deployment map, and shows
how the classifier labels it.  Lives in the package (not the examples
tree) so ``repro-hunt gallery`` works from an installed wheel;
``examples/pattern_gallery.py`` delegates here.
"""

from __future__ import annotations

from datetime import date, timedelta
from typing import Iterator

from repro.core.patterns import classify_dataset
from repro.core.render import render_classification
from repro.net.timeline import Period
from repro.scan.annotate import AnnotatedScanRecord
from repro.scan.dataset import ScanDataset
from repro.tls.certificate import Certificate

PERIOD = Period(index=0, start=date(2019, 1, 1), end=date(2019, 6, 30))
DATES = tuple(PERIOD.start + timedelta(days=7 * i) for i in range(26))


def cert(name: str, serial: int, issued: date, issuer: str = "DigiCert Inc") -> Certificate:
    return Certificate(
        serial=serial, common_name=name, sans=(name,), issuer=issuer,
        not_before=issued, not_after=issued + timedelta(days=365),
    )


def records(domain, dates, ip, asn, cc, certificate):
    return [
        AnnotatedScanRecord(
            scan_date=d, ip=ip, ports=(443,), asn=asn, country=cc,
            certificate=certificate, trusted=True,
            sensitive="mail" in certificate.common_name,
            names=(certificate.common_name,), base_domains=(domain,),
        )
        for d in dates
    ]


def gallery() -> Iterator[tuple[str, str, list[AnnotatedScanRecord]]]:
    c = {i: cert(f"www.d{i}.com", i, date(2018, 12, 1)) for i in range(1, 20)}
    rollover_new = cert("www.d2.com", 21, date(2019, 3, 25))
    extra_cert = cert("app.d4.com", 22, date(2019, 3, 1))
    new_provider_cert = cert("www.d6.com", 23, date(2019, 3, 25), "Let's Encrypt")
    migration_cert = cert("www.d7.com", 24, date(2019, 3, 25), "Let's Encrypt")
    rogue = cert("mail.d8.com", 25, date(2019, 3, 20), "Let's Encrypt")

    yield "S1 — one deployment, one certificate (most of the Internet)", "d1.com", (
        records("d1.com", DATES, "10.0.0.1", 100, "US", c[1])
    )
    yield "S2 — certificate rollover within a stable deployment", "d2.com", (
        records("d2.com", DATES[:13], "10.0.0.2", 100, "US", c[2])
        + records("d2.com", DATES[13:], "10.0.0.2", 100, "US", rollover_new)
    )
    yield "S3 — new geography, same AS (provider expansion)", "d3.com", (
        records("d3.com", DATES, "10.0.0.3", 100, "US", c[3])
        + records("d3.com", DATES[10:], "10.1.0.3", 100, "DE", c[3])
    )
    yield "S4 — an additional certificate on the same infrastructure", "d4.com", (
        records("d4.com", DATES, "10.0.0.4", 100, "US", c[4])
        + records("d4.com", DATES[9:], "10.0.0.4", 100, "US", extra_cert)
    )
    yield "X1 — expansion into a new AS with the same certificate", "d5.com", (
        records("d5.com", DATES, "10.0.0.5", 100, "US", c[5])
        + records("d5.com", DATES[12:], "20.0.0.5", 200, "DE", c[5])
    )
    yield "X2 — expansion into a new AS with an additional certificate", "d6.com", (
        records("d6.com", DATES, "10.0.0.6", 100, "US", c[6])
        + records("d6.com", DATES[12:], "20.0.0.6", 200, "DE", new_provider_cert)
    )
    yield "X3 — migration to entirely new infrastructure", "d7.com", (
        records("d7.com", DATES[:14], "10.0.0.7", 100, "US", c[7])
        + records("d7.com", DATES[13:], "20.0.0.7", 200, "DE", migration_cert)
    )
    yield "T1 — TRANSIENT deployment with a NEW certificate (suspicious!)", "d8.com", (
        records("d8.com", DATES, "10.0.0.8", 100, "US", c[8])
        + records("d8.com", DATES[12:13], "203.0.113.8", 666, "NL", rogue)
    )
    yield "T2 — TRANSIENT deployment serving the STABLE certificate (proxy prelude)", "d9.com", (
        records("d9.com", DATES, "10.0.0.9", 100, "US", c[9])
        + records("d9.com", DATES[12:14], "203.0.113.9", 666, "NL", c[9])
    )
    noisy_records = []
    for hop in range(4):
        hop_cert = cert("www.d10.com", 30 + hop, date(2019, 1, 1), "Let's Encrypt")
        noisy_records += records(
            "d10.com", DATES[hop * 6 : hop * 6 + 5], f"10.{hop}.0.10", 300 + hop, "US", hop_cert
        )
    yield "NOISY — continual movement, no stable deployment", "d10.com", noisy_records


def render_gallery() -> str:
    """The full gallery as one renderable text block."""
    blocks: list[str] = []
    for title, domain, recs in gallery():
        classification = classify_dataset(ScanDataset(recs, DATES), (PERIOD,))[
            (domain, PERIOD.index)
        ]
        blocks.append(
            "\n".join(
                ["=" * 78, title, "=" * 78, render_classification(classification), ""]
            )
        )
    return "\n".join(blocks)


def main() -> None:
    print(render_gallery())


if __name__ == "__main__":
    main()
