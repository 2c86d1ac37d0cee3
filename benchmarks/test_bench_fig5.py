"""Figure 5 — transient patterns T1 and T2.

The suspicious shapes: a brief foreign-AS deployment serving a NEW
certificate (T1) or the victim's own STABLE certificate (T2, the proxy
prelude).  Also checks the three-month threshold boundary that separates
transients from transitions.  The benchmark measures the deployment and
classification kernels over the two canonical domains.
"""

import sys
from datetime import date
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from helpers import PERIOD, ScanSketch, make_cert, scan_dates  # noqa: E402
from repro.scan.dataset import ScanDataset  # noqa: E402
from repro.core.patterns import classify_dataset  # noqa: E402
from repro.core.types import PatternKind, SubPattern  # noqa: E402

from conftest import show  # noqa: E402

DATES = scan_dates()


def classify_sketch(sketch: ScanSketch):
    return classify_dataset(sketch.dataset(), (PERIOD,))[(sketch.domain, PERIOD.index)]


def canonical_transient_sketches():
    stable_a = make_cert("www.a.com", 1, date(2018, 12, 1))
    rogue = make_cert("mail.a.com", 2, date(2019, 3, 20), issuer="Let's Encrypt", days=90)
    t1 = (
        ScanSketch("a.com")
        .presence(DATES, "10.0.0.1", 100, "US", stable_a)
        .presence(DATES[12:13], "203.0.113.5", 666, "NL", rogue)
    )

    stable_b = make_cert("mail.b.com", 3, date(2018, 12, 1))
    t2 = (
        ScanSketch("b.com")
        .presence(DATES, "10.1.0.1", 101, "US", stable_b)
        .presence(DATES[12:14], "203.0.113.9", 666, "NL", stable_b)
    )
    return {"T1": t1, "T2": t2}


def test_fig5_transient_patterns(benchmark):
    sketches = canonical_transient_sketches()
    dataset = ScanDataset([r for s in sketches.values() for r in s.records], DATES)
    classifications = benchmark.pedantic(
        lambda: classify_dataset(dataset, (PERIOD,)), rounds=10, iterations=1
    )
    results = {
        label: classifications[(s.domain, PERIOD.index)]
        for label, s in sketches.items()
    }

    lines = [
        f"{label}: kind={c.kind.value} subpatterns={[p.value for p in c.subpatterns]}"
        for label, c in results.items()
    ]
    show("Figure 5: transient patterns (measured classification)", lines)

    for label, subpattern in (("T1", SubPattern.T1), ("T2", SubPattern.T2)):
        assert results[label].kind is PatternKind.TRANSIENT, label
        assert results[label].subpatterns == (subpattern,), label

    # Threshold boundary: a 12-scan (~3 month) deployment is transient,
    # a 15-scan one is not (the paper's free-certificate-lifetime rule).
    stable = make_cert("www.c.com", 4, date(2018, 12, 1))
    alien_short = make_cert("mail.c.com", 5, date(2019, 1, 10), issuer="Let's Encrypt")
    at_threshold = (
        ScanSketch("c.com")
        .presence(DATES, "10.2.0.1", 102, "US", stable)
        .presence(DATES[2:14], "203.0.113.7", 666, "NL", alien_short)
    )
    assert classify_sketch(at_threshold).kind is PatternKind.TRANSIENT

    beyond = (
        ScanSketch("d.com")
        .presence(DATES, "10.3.0.1", 103, "US", make_cert("www.d.com", 6, date(2018, 12, 1)))
        .presence(DATES[2:17], "203.0.113.8", 666, "NL",
                  make_cert("mail.d.com", 7, date(2019, 1, 10), issuer="Let's Encrypt"))
    )
    assert classify_sketch(beyond).kind is not PatternKind.TRANSIENT
    benchmark.extra_info["threshold_days"] = 91
