"""Actor attribution by shared infrastructure (Section 5.6).

The paper repeatedly leans on infrastructure reuse — the same IP
hijacking six domains, the same rogue nameservers serving four — and
observes that the 2018 hijack wave and the 2020 targeted wave "likely
simply reflect different attackers being observed".  This module makes
that inference explicit: build a bipartite graph of victims and the
attacker infrastructure that touched them (IPs and nameserver names),
take connected components, and each component is one *campaign cluster*
— infrastructure the same actor controlled.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from repro.core.report import DomainFinding


@dataclass(frozen=True, slots=True)
class CampaignCluster:
    """One connected component of shared attacker infrastructure."""

    domains: tuple[str, ...]
    ips: tuple[str, ...]
    nameservers: tuple[str, ...]
    asns: tuple[int, ...]
    first: date | None
    last: date | None

    @property
    def size(self) -> int:
        return len(self.domains)

    @property
    def span_days(self) -> int:
        if self.first is None or self.last is None:
            return 0
        return (self.last - self.first).days


def _infra_nodes(finding: DomainFinding) -> list[str]:
    nodes = [f"ip:{ip}" for ip in finding.attacker_ips]
    nodes += [f"ns:{ns}" for ns in finding.attacker_ns]
    return nodes


def _components(findings: list[DomainFinding]) -> list[list[str]]:
    """Connected components of the victim-infrastructure graph, by
    union-find over victim nodes and their IP and nameserver nodes."""
    parent: dict[str, str] = {}

    def root(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]  # path halving
            node = parent[node]
        return node

    for finding in findings:
        victim = root(f"victim:{finding.domain}")
        for node in _infra_nodes(finding):
            parent[root(node)] = victim  # victim stays a root
    components: dict[str, list[str]] = {}
    for node in parent:
        components.setdefault(root(node), []).append(node)
    return list(components.values())


def cluster_campaigns(findings: list[DomainFinding]) -> list[CampaignCluster]:
    """Connected components over the victim-infrastructure graph."""
    by_domain = {f.domain: f for f in findings}
    clusters: list[CampaignCluster] = []
    for component in _components(findings):
        domains = sorted(
            node.split(":", 1)[1] for node in component if node.startswith("victim:")
        )
        ips = sorted(
            node.split(":", 1)[1] for node in component if node.startswith("ip:")
        )
        nameservers = sorted(
            node.split(":", 1)[1] for node in component if node.startswith("ns:")
        )
        asns = sorted(
            {
                by_domain[d].attacker_asn
                for d in domains
                if by_domain[d].attacker_asn is not None
            }
        )
        dates = [
            by_domain[d].first_evidence
            for d in domains
            if by_domain[d].first_evidence is not None
        ]
        clusters.append(
            CampaignCluster(
                domains=tuple(domains),
                ips=tuple(ips),
                nameservers=tuple(nameservers),
                asns=tuple(asns),
                first=min(dates) if dates else None,
                last=max(dates) if dates else None,
            )
        )
    clusters.sort(key=lambda c: (-c.size, c.domains))
    return clusters


def attribution_accuracy(
    clusters: list[CampaignCluster], actor_of: dict[str, str]
) -> tuple[float, float]:
    """Score clusters against ground-truth actors.

    Returns (purity, fragmentation): purity is the fraction of domains
    living in a cluster dominated by their own actor; fragmentation is
    the mean number of clusters each actor's victims are spread over
    (1.0 = every actor fully reassembled).
    """
    scored = 0
    pure = 0
    actor_clusters: dict[str, set[int]] = {}
    for index, cluster in enumerate(clusters):
        actors = [actor_of[d] for d in cluster.domains if d in actor_of]
        if not actors:
            continue
        dominant = max(set(actors), key=actors.count)
        for domain in cluster.domains:
            actor = actor_of.get(domain)
            if actor is None:
                continue
            scored += 1
            if actor == dominant:
                pure += 1
            actor_clusters.setdefault(actor, set()).add(index)
    purity = pure / scored if scored else 1.0
    fragmentation = (
        sum(len(indexes) for indexes in actor_clusters.values()) / len(actor_clusters)
        if actor_clusters
        else 1.0
    )
    return purity, fragmentation


def format_clusters(clusters: list[CampaignCluster], top: int = 10) -> str:
    header = f"{'#':>3} {'victims':>8} {'ASNs':<22} {'first':<11} {'last':<11} span"
    lines = [header, "-" * len(header)]
    for index, cluster in enumerate(clusters[:top], start=1):
        lines.append(
            f"{index:>3} {cluster.size:>8} {str(list(cluster.asns))[:22]:<22} "
            f"{str(cluster.first):<11} {str(cluster.last):<11} "
            f"{cluster.span_days}d"
        )
        preview = ", ".join(cluster.domains[:4])
        more = f" (+{cluster.size - 4} more)" if cluster.size > 4 else ""
        lines.append(f"    {preview}{more}")
    return "\n".join(lines)
