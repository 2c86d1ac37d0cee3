"""Tests for infrastructure-based actor attribution."""

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.attribution import (
    attribution_accuracy,
    cluster_campaigns,
    format_clusters,
)
from repro.core.report import DomainFinding
from repro.core.types import DetectionType, Verdict


def finding(domain, ips=(), ns=(), asn=666, when=date(2019, 1, 1)):
    return DomainFinding(
        domain=domain,
        verdict=Verdict.HIJACKED,
        detection=DetectionType.T1,
        first_evidence=when,
        attacker_ips=tuple(ips),
        attacker_asn=asn,
        attacker_ns=tuple(ns),
    )


class TestClustering:
    def test_shared_ip_joins_victims(self):
        clusters = cluster_campaigns(
            [
                finding("a.gov", ips=("1.1.1.1",)),
                finding("b.gov", ips=("1.1.1.1",)),
                finding("c.gov", ips=("2.2.2.2",)),
            ]
        )
        assert len(clusters) == 2
        assert clusters[0].domains == ("a.gov", "b.gov")
        assert clusters[1].domains == ("c.gov",)

    def test_shared_ns_joins_across_ips(self):
        clusters = cluster_campaigns(
            [
                finding("a.gov", ips=("1.1.1.1",), ns=("ns1.rogue.net",)),
                finding("b.gov", ips=("2.2.2.2",), ns=("ns1.rogue.net",)),
            ]
        )
        assert len(clusters) == 1
        assert clusters[0].nameservers == ("ns1.rogue.net",)
        assert set(clusters[0].ips) == {"1.1.1.1", "2.2.2.2"}

    def test_transitive_closure(self):
        """A-ip1, B-{ip1,ns1}, C-ns1: one actor, fully reassembled."""
        clusters = cluster_campaigns(
            [
                finding("a.gov", ips=("1.1.1.1",)),
                finding("b.gov", ips=("1.1.1.1",), ns=("ns1.rogue.net",)),
                finding("c.gov", ns=("ns1.rogue.net",)),
            ]
        )
        assert len(clusters) == 1
        assert clusters[0].size == 3

    def test_span(self):
        clusters = cluster_campaigns(
            [
                finding("a.gov", ips=("1.1.1.1",), when=date(2018, 5, 1)),
                finding("b.gov", ips=("1.1.1.1",), when=date(2019, 1, 1)),
            ]
        )
        assert clusters[0].span_days == 245


def _networkx_clusters(findings):
    """The reference: networkx's connected components over the
    victim-infrastructure graph, as domain, IP and nameserver sets."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    for f in findings:
        graph.add_node(("victim", f.domain))
        for ip in f.attacker_ips:
            graph.add_edge(("victim", f.domain), ("ip", ip))
        for ns in f.attacker_ns:
            graph.add_edge(("victim", f.domain), ("ns", ns))
    return sorted(
        tuple(
            tuple(sorted(value for k, value in component if k == kind))
            for kind in ("victim", "ip", "ns")
        )
        for component in nx.connected_components(graph)
    )


_infra = st.lists(st.sampled_from(["1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4"]), max_size=2)
_ns = st.lists(st.sampled_from(["ns1.rogue.net", "ns2.rogue.net", "ns.evil.org"]), max_size=2)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([f"v{i}.gov" for i in range(8)]), _infra, _ns),
        max_size=8,
    )
)
def test_clusters_match_networkx_components(rows):
    findings = [finding(domain, ips=ips, ns=ns) for domain, ips, ns in rows]
    clusters = cluster_campaigns(findings)
    assert sorted((c.domains, c.ips, c.nameservers) for c in clusters) == _networkx_clusters(
        findings
    )
    sizes = [(-c.size, c.domains) for c in clusters]
    assert sizes == sorted(sizes)


class TestAccuracy:
    def test_perfect_attribution(self):
        clusters = cluster_campaigns(
            [
                finding("a.gov", ips=("1.1.1.1",)),
                finding("b.gov", ips=("1.1.1.1",)),
                finding("c.gov", ips=("2.2.2.2",)),
            ]
        )
        purity, fragmentation = attribution_accuracy(
            clusters, {"a.gov": "actor-x", "b.gov": "actor-x", "c.gov": "actor-y"}
        )
        assert purity == 1.0
        assert fragmentation == 1.0

    def test_fragmented_actor(self):
        clusters = cluster_campaigns(
            [
                finding("a.gov", ips=("1.1.1.1",)),
                finding("b.gov", ips=("2.2.2.2",)),  # same actor, no shared infra
            ]
        )
        _, fragmentation = attribution_accuracy(
            clusters, {"a.gov": "actor-x", "b.gov": "actor-x"}
        )
        assert fragmentation == 2.0


class TestOnPaperStudy:
    def test_kyrgyz_cluster_reassembled(self, paper, paper_report):
        clusters = cluster_campaigns(paper_report.hijacked())
        kg_cluster = next(
            c for c in clusters if "mfa.gov.kg" in c.domains
        )
        assert {"mfa.gov.kg", "invest.gov.kg", "fiu.gov.kg", "infocom.kg"} <= set(
            kg_cluster.domains
        )
        assert any("kg-infocom.ru" in ns for ns in kg_cluster.nameservers)

    def test_purity_against_ns_cluster_ground_truth(self, paper, paper_report):
        from repro.world.scenarios import HIJACKED_ROWS

        actor_of = {
            row.domain: row.ns_cluster for row in HIJACKED_ROWS if row.ns_cluster
        }
        clusters = cluster_campaigns(paper_report.hijacked())
        purity, _ = attribution_accuracy(clusters, actor_of)
        assert purity >= 0.9

    def test_rendering(self, paper_report):
        text = format_clusters(cluster_campaigns(paper_report.hijacked()))
        assert "victims" in text
        assert "span" in text
