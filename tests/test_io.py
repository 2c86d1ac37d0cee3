"""Tests for the persistence layer: JSONL primitives and round-trips."""

from datetime import date

import pytest

from repro.core.patterns import classify_dataset
from repro.io.datasets import load_pdns, load_scan_dataset, save_pdns, save_scan_dataset
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.io.reports import load_findings, save_findings


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.jsonl"
        rows = [{"a": 1}, {"b": [1, 2], "c": "text"}]
        assert write_jsonl(path, rows) == 2
        assert list(read_jsonl(path)) == rows

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\n\n{"b":2}\n')
        assert len(list(read_jsonl(path))) == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            list(read_jsonl(path))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "x.jsonl"
        write_jsonl(path, [{"a": 1}])
        assert path.exists()


class TestScanDatasetRoundtrip:
    def test_roundtrip_preserves_pipeline_behaviour(self, small_study, tmp_path):
        path = tmp_path / "scan.jsonl"
        n = save_scan_dataset(small_study.scan, path)
        assert n == len(small_study.scan) + 1  # records + header

        loaded = load_scan_dataset(path)
        assert loaded.scan_dates == small_study.scan.scan_dates
        assert loaded.domains() == small_study.scan.domains()
        assert len(loaded) == len(small_study.scan)

        # Deployment maps built from the loaded dataset are identical in
        # structure (same deployments per domain-period).
        original = classify_dataset(small_study.scan, small_study.periods)
        replayed = classify_dataset(loaded, small_study.periods)
        assert set(original) == set(replayed)
        for key in original:
            a, b = original[key].map, replayed[key].map
            assert [(d.asn, d.first_seen, d.last_seen) for d in a.deployments] == [
                (d.asn, d.first_seen, d.last_seen) for d in b.deployments
            ]
            assert [d.cert_fingerprints for d in a.deployments] == [
                d.cert_fingerprints for d in b.deployments
            ]

    def test_certificates_shared_by_fingerprint(self, small_study, tmp_path):
        path = tmp_path / "scan.jsonl"
        save_scan_dataset(small_study.scan, path)
        loaded = load_scan_dataset(path)
        by_fp = {}
        for record in loaded.records():
            existing = by_fp.setdefault(record.certificate.fingerprint, record.certificate)
            assert existing is record.certificate  # object identity preserved

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_scan_dataset(path)


class TestPdnsRoundtrip:
    def test_roundtrip_preserves_rows(self, small_study, tmp_path):
        path = tmp_path / "pdns.jsonl"
        save_pdns(small_study.pdns, path)
        loaded = load_pdns(path)
        original = {
            (r.rrname, r.rtype, r.rdata): (r.first_seen, r.last_seen, r.count)
            for r in small_study.pdns.all_records()
        }
        replayed = {
            (r.rrname, r.rtype, r.rdata): (r.first_seen, r.last_seen, r.count)
            for r in loaded.all_records()
        }
        assert original == replayed

    def test_pivot_queries_survive_roundtrip(self, small_study, tmp_path):
        path = tmp_path / "pdns.jsonl"
        save_pdns(small_study.pdns, path)
        loaded = load_pdns(path)
        truth = small_study.ground_truth.record_for("example-ministry.gr")
        ip = truth.attacker_ips[0]
        assert loaded.domains_resolving_to(ip) == small_study.pdns.domains_resolving_to(ip)


class TestFindingsRoundtrip:
    def test_roundtrip(self, small_report, tmp_path):
        path = tmp_path / "findings.jsonl"
        save_findings(small_report.findings, path)
        loaded = load_findings(path)
        assert len(loaded) == len(small_report.findings)
        for a, b in zip(small_report.findings, loaded):
            assert a.domain == b.domain
            assert a.verdict is b.verdict
            assert a.detection is b.detection
            assert a.attacker_ips == b.attacker_ips
            assert a.crtsh_id == b.crtsh_id
            assert a.first_evidence == b.first_evidence
