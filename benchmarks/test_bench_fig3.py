"""Figure 3 — stable patterns S1-S4.

Builds each canonical stable shape and verifies the classifier labels it
stable with the right sub-pattern.  The benchmark measures the
deployment and classification kernels over the four canonical domains.
"""

import sys
from datetime import date
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from helpers import PERIOD, ScanSketch, make_cert, scan_dates  # noqa: E402
from repro.core.patterns import classify_dataset  # noqa: E402
from repro.core.types import PatternKind, SubPattern  # noqa: E402
from repro.scan.dataset import ScanDataset  # noqa: E402

from conftest import show  # noqa: E402

DATES = scan_dates()


def canonical_stable_sketches():
    s1_cert = make_cert("www.a.com", 1, date(2018, 12, 1))
    s1 = ScanSketch("a.com").presence(DATES, "10.0.0.1", 100, "US", s1_cert)

    s2_old = make_cert("www.b.com", 2, date(2018, 12, 1), days=120)
    s2_new = make_cert("www.b.com", 3, date(2019, 3, 25), days=120)
    s2 = (
        ScanSketch("b.com")
        .presence(DATES[:13], "10.1.0.1", 101, "US", s2_old)
        .presence(DATES[13:], "10.1.0.1", 101, "US", s2_new)
    )

    s3_cert = make_cert("www.c.com", 4, date(2018, 12, 1))
    s3 = (
        ScanSketch("c.com")
        .presence(DATES, "10.2.0.1", 102, "US", s3_cert)
        .presence(DATES[10:], "10.2.1.1", 102, "DE", s3_cert)
    )

    s4_main = make_cert("www.d.com", 5, date(2018, 12, 1))
    s4_extra = make_cert("app.d.com", 6, date(2019, 3, 1))
    s4 = (
        ScanSketch("d.com")
        .presence(DATES, "10.3.0.1", 103, "US", s4_main)
        .presence(DATES[9:], "10.3.0.1", 103, "US", s4_extra)
    )
    return {"S1": s1, "S2": s2, "S3": s3, "S4": s4}


def test_fig3_stable_patterns(benchmark):
    sketches = canonical_stable_sketches()
    dataset = ScanDataset([r for s in sketches.values() for r in s.records], DATES)
    classifications = benchmark.pedantic(
        lambda: classify_dataset(dataset, (PERIOD,)), rounds=10, iterations=1
    )
    results = {
        label: classifications[(s.domain, PERIOD.index)]
        for label, s in sketches.items()
    }

    lines = []
    for label, classification in results.items():
        lines.append(
            f"{label}: kind={classification.kind.value} "
            f"subpatterns={[p.value for p in classification.subpatterns]}"
        )
    show("Figure 3: stable patterns (measured classification)", lines)

    expected = {
        "S1": SubPattern.S1,
        "S2": SubPattern.S2,
        "S3": SubPattern.S3,
        "S4": SubPattern.S4,
    }
    for label, subpattern in expected.items():
        assert results[label].kind is PatternKind.STABLE, label
        assert subpattern in results[label].subpatterns, label
    benchmark.extra_info["all_stable"] = True
