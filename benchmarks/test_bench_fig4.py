"""Figure 4 — transition patterns X1-X3.

Canonical expansion (same cert / new cert) and migration shapes must
classify as transitions with the right sub-pattern.  The benchmark
measures the deployment and classification kernels over the three
canonical domains.
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


def canonical_transition_sketches():
    x1_cert = make_cert("www.a.com", 1, date(2018, 12, 1))
    x1 = (
        ScanSketch("a.com")
        .presence(DATES, "10.0.0.1", 100, "US", x1_cert)
        .presence(DATES[12:], "20.0.0.1", 200, "DE", x1_cert)
    )

    x2_cert = make_cert("www.b.com", 2, date(2018, 12, 1))
    x2_cloud = make_cert("cdn.b.com", 3, date(2019, 3, 25))
    x2 = (
        ScanSketch("b.com")
        .presence(DATES, "10.1.0.1", 101, "US", x2_cert)
        .presence(DATES[12:], "20.1.0.1", 201, "DE", x2_cloud)
    )

    x3_old = make_cert("www.c.com", 4, date(2018, 12, 1))
    x3_new = make_cert("www.c.com", 5, date(2019, 3, 25))
    x3 = (
        ScanSketch("c.com")
        .presence(DATES[:14], "10.2.0.1", 102, "US", x3_old)
        .presence(DATES[13:], "20.2.0.1", 202, "DE", x3_new)
    )
    return {"X1": x1, "X2": x2, "X3": x3}


def test_fig4_transition_patterns(benchmark):
    sketches = canonical_transition_sketches()
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
    show("Figure 4: transition patterns (measured classification)", lines)

    expected = {"X1": SubPattern.X1, "X2": SubPattern.X2, "X3": SubPattern.X3}
    for label, subpattern in expected.items():
        assert results[label].kind is PatternKind.TRANSITION, label
        assert subpattern in results[label].subpatterns, label
    benchmark.extra_info["all_transitions"] = True
