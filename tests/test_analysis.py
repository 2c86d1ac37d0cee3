"""Tests for the evaluation analyses (Tables 4, 5, 9; funnel; observability)."""

from repro.analysis.attacker_infra import (
    PAPER_TABLE5,
    attacker_network_table,
    format_network_table,
)
from repro.analysis.certificates import (
    ca_breakdown,
    certificate_table,
    format_certificate_table,
    revocation_breakdown,
)
from repro.analysis.evaluation import evaluate_report
from repro.analysis.funnel import (
    PAPER_FRACTIONS,
    ClassificationFractions,
    classification_fractions,
    funnel_rows,
)
from repro.analysis.observability import observability_stats
from repro.analysis.sectors import PAPER_TABLE4, format_sector_table, sector_table
from repro.core.types import PatternKind


class TestSectorTable:
    def test_matches_paper_table4(self, paper):
        rows = sector_table(paper.ground_truth)
        measured = {r.sector: (r.hijacked, r.targeted) for r in rows}
        assert measured == PAPER_TABLE4

    def test_totals(self, paper):
        rows = sector_table(paper.ground_truth)
        assert sum(r.hijacked for r in rows) == 41
        assert sum(r.targeted for r in rows) == 24

    def test_identified_filter(self, paper, paper_report):
        identified = {f.domain for f in paper_report.findings}
        rows = sector_table(paper.ground_truth, identified)
        assert sum(r.total for r in rows) == 65  # everything was identified

    def test_rendering(self, paper):
        text = format_sector_table(sector_table(paper.ground_truth))
        assert "Government Ministry" in text
        assert "Total" in text


class TestNetworkTable:
    def test_attacker_network_concentration(self, paper):
        rows = attacker_network_table(paper.ground_truth)
        measured = {r.asn: (r.hijacked, r.targeted) for r in rows}
        # Every paper ASN appears with the same counts (the per-domain
        # attacker ASNs are exact scenario inputs).
        for asn, expected in PAPER_TABLE5.items():
            assert asn in measured, asn
        assert sum(h for h, _ in measured.values()) == 41
        assert sum(t for _, t in measured.values()) == 24
        # Top networks match the paper's ordering.
        assert rows[0].asn == 14061  # Digital Ocean dominates

    def test_rendering(self, paper):
        text = format_network_table(attacker_network_table(paper.ground_truth))
        assert "Digital Ocean" in text


class TestCertificateTable:
    def test_ca_breakdown_matches_table9(self, paper, paper_report):
        rows = certificate_table(paper_report, paper.crtsh)
        assert len(rows) == 41  # one per hijacked domain
        cas = ca_breakdown(rows)
        assert cas == {"Let's Encrypt": 28, "Comodo": 12}

    def test_revocation_asymmetry(self, paper, paper_report):
        """4 Comodo certs revoked and CRL-visible; Let's Encrypt
        revocations unknowable (OCSP-only) — Table 9's key finding."""
        rows = certificate_table(paper_report, paper.crtsh)
        statuses = revocation_breakdown(rows)
        assert statuses.get("revoked", 0) == 4
        assert statuses.get("unknown", 0) == 28  # all expired LE certs
        assert statuses.get("no-certificate", 0) == 1  # embassy.ly
        revoked = {r.domain for r in rows if r.revocation and r.revocation.value == "revoked"}
        assert revoked == {"asp.gov.al", "netnod.se", "pch.net", "cyta.com.cy"}

    def test_rendering(self, paper, paper_report):
        text = format_certificate_table(certificate_table(paper_report, paper.crtsh))
        assert "crt.sh ID" in text


class TestFunnel:
    def test_fractions_sum_to_at_most_one(self, paper_report):
        fractions = classification_fractions(paper_report)
        total = sum(fractions.as_dict().values())
        assert 0.99 <= total <= 1.0  # NO_DATA maps may take the remainder

    def test_stable_dominates(self, paper_report):
        fractions = classification_fractions(paper_report)
        assert fractions.stable > 0.90
        assert fractions.transient < 0.05

    def test_fractions_read_off_the_funnel_equal_a_walk(self, paper_report):
        """The seed-7 report's fractions equal counting every decoded
        classification's kind, the walk they replaced."""
        counts = {kind: 0 for kind in PatternKind}
        for classification in paper_report.classifications.values():
            counts[classification.kind] += 1
        n_maps = sum(counts.values())
        assert classification_fractions(paper_report) == ClassificationFractions(
            n_maps=n_maps,
            stable=counts[PatternKind.STABLE] / n_maps,
            transition=counts[PatternKind.TRANSITION] / n_maps,
            transient=counts[PatternKind.TRANSIENT] / n_maps,
            noisy=counts[PatternKind.NOISY] / n_maps,
        )

    def test_paper_fractions_reference(self):
        assert abs(sum(PAPER_FRACTIONS.values()) - 0.9993) < 1e-9

    def test_funnel_rows_monotone(self, paper_report):
        rows = dict(funnel_rows(paper_report))
        assert rows["shortlisted"] <= rows["transient maps"] + 5
        assert rows["hijacked (direct)"] <= rows["worth examining"]


class TestObservability:
    def test_stats_computed_for_hijacked_domains(self, paper, paper_report):
        stats = observability_stats(
            paper.ground_truth, paper.pdns, paper.scan,
            world=paper.world, report=paper_report,
        )
        # pDNS evidence spans exist for all pdns-visible hijacks (39 of 41).
        assert len(stats.pdns_spans_days) >= 35
        # Around half of the hijacks are visible in pDNS for at most a day.
        assert 0.3 <= stats.frac_pdns_at_most_one_day <= 0.8
        # Most malicious certs hit the scans within 8 days of issuance.
        assert stats.frac_cert_visible_within_8_days >= 0.5
        # Most certificates appear in only one or two weekly scans.
        one_or_two = stats.frac_cert_seen_in_exactly(1) + stats.frac_cert_seen_in_exactly(2)
        assert one_or_two >= 0.7
        # Zone files are nearly blind to sub-day hijacks.
        assert stats.frac_zone_blind >= 0.8


class TestEvaluation:
    def test_scores_have_metadata(self, paper, paper_report):
        evaluation = evaluate_report(paper_report, paper.ground_truth)
        scores = {s.domain: s for s in evaluation.scores}
        assert scores["mfa.gov.kg"].detection_correct
        assert scores["ais.gov.vn"].kind_correct
        assert evaluation.missed() == []
        assert evaluation.mislabeled() == []
