"""Figure 2 — deployment map of kyvernisi.gr, 2019H1.

Rebuilds the paper's example map: one stable deployment (the Greek
government network) and one transient deployment (a single scan from a
Vultr address in the Netherlands).  The benchmark measures deployment-
map construction (encode and decode) for one domain-period.
"""

from repro.core.deployment import build_domain_maps
from repro.core.patterns import classify_dataset
from repro.core.types import PatternKind, SubPattern

from conftest import show


def test_fig2_deployment_map(benchmark, paper):
    period = next(p for p in paper.periods if p.label == "2019H1")

    ((_, map_),) = benchmark.pedantic(
        lambda: build_domain_maps(paper.scan, "kyvernisi.gr", (period,)),
        rounds=5,
        iterations=1,
    )

    lines = []
    for deployment in map_.deployments:
        lines.append(
            f"deployment AS{deployment.asn}: {deployment.first_seen} .. "
            f"{deployment.last_seen} ({deployment.scan_count} scans, "
            f"ips={sorted(deployment.ips)}, countries={sorted(deployment.countries)})"
        )
    show("Figure 2: kyvernisi.gr deployment map, 2019H1 (measured)", lines)

    # Paper: exactly two deployments — Deployment #1 stable, #2 transient.
    assert len(map_.deployments) == 2
    stable = map_.deployments_for_asn(35506)[0]
    transient = map_.deployments_for_asn(20473)[0]
    assert stable.scan_count > 20
    assert transient.scan_count <= 2
    assert transient.ips == frozenset({"95.179.131.225"})
    assert transient.countries == frozenset({"NL"})

    classification = classify_dataset(paper.scan, (period,))[
        ("kyvernisi.gr", period.index)
    ]
    assert classification.map == map_
    assert classification.kind is PatternKind.TRANSIENT
    assert classification.subpatterns == (SubPattern.T1,)

    benchmark.extra_info["deployments"] = len(map_.deployments)
    benchmark.extra_info["pattern"] = classification.kind.value
