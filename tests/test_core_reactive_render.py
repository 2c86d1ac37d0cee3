"""Tests for the extension features: reactive monitoring (Section 7.1)
and ASCII deployment-map rendering."""

from datetime import date, datetime

from repro.core.patterns import classify_dataset
from repro.core.reactive import ReactiveMonitor
from repro.core.render import render_classification, render_deployment_map

from tests.helpers import PERIOD, ScanSketch, make_cert, scan_dates

DATES = scan_dates()


class TestReactiveMonitor:
    def test_catches_hijack_issuance_in_real_time(self, small_study):
        """The malicious certificate triggers an alert at issuance time —
        the §7.1 'reactive measurement on issuance' intervention."""
        world = small_study.world
        monitor = ReactiveMonitor(world.resolver)
        monitor.watch_from_current_state("example-ministry.gr", datetime(2018, 3, 1))
        alerts = monitor.scan_log(world.ct_log)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.domain == "example-ministry.gr"
        assert alert.names == ("mail.example-ministry.gr",)
        assert alert.reason == "rogue-delegation"
        assert any("rogue-demo.net" in ns for ns in alert.observed_ns)
        truth = small_study.ground_truth.record_for("example-ministry.gr")
        assert alert.crtsh_id == truth.crtsh_id
        assert alert.issued_on == truth.hijack_date

    def test_legitimate_issuance_not_flagged(self, small_study):
        """Certificates issued while the baseline delegation holds are
        silent — no false alarms from ordinary renewals."""
        world = small_study.world
        monitor = ReactiveMonitor(world.resolver)
        monitor.watch_from_current_state("example-ministry.gr", datetime(2018, 3, 1))
        alerts = monitor.scan_log(world.ct_log)
        truth = small_study.ground_truth.record_for("example-ministry.gr")
        legit_ids = {
            e.certificate.crtsh_id
            for e in world.ct_log.entries()
            if e.certificate.crtsh_id != truth.crtsh_id
        }
        assert all(a.crtsh_id not in legit_ids for a in alerts)

    def test_unwatched_domains_ignored(self, small_study):
        monitor = ReactiveMonitor(small_study.world.resolver)
        assert monitor.scan_log(small_study.world.ct_log) == []
        assert monitor.processed == len(small_study.world.ct_log)

    def test_explicit_baseline_registration(self, small_study):
        monitor = ReactiveMonitor(small_study.world.resolver)
        monitor.watch("example-ministry.gr", ("ns1.example-ministry.gr",), ("10.128.0.1",))
        assert monitor.watched() == ("example-ministry.gr",)


class TestRendering:
    def make_classification(self):
        stable = make_cert("www.x.gr", 1, date(2018, 12, 1))
        rogue = make_cert("mail.x.gr", 2, date(2019, 3, 20), issuer="Let's Encrypt")
        sketch = (
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", stable)
            .presence(DATES[12:13], "203.0.113.5", 666, "NL", rogue)
        )
        return classify_dataset(sketch.dataset(), (PERIOD,))[("x.gr", PERIOD.index)]

    def make_map(self):
        return self.make_classification().map

    def test_render_contains_rows_and_legend(self):
        text = render_deployment_map(self.make_map())
        assert "x.gr — 2019H1" in text
        assert "AS100" in text
        assert "AS666" in text
        assert "certs:" in text
        # The stable row fills the period; the transient has one cell.
        rows = [line for line in text.splitlines() if line.rstrip().endswith("|")]
        assert len(rows) == 2

    def test_distinct_certs_get_distinct_glyphs(self):
        text = render_deployment_map(self.make_map())
        stable_row = next(l for l in text.splitlines() if "AS100" in l)
        transient_row = next(l for l in text.splitlines() if "AS666" in l)
        stable_glyph = {c for c in stable_row.split("|")[1] if c != " "}
        transient_glyph = {c for c in transient_row.split("|")[1] if c != " "}
        assert stable_glyph and transient_glyph
        assert stable_glyph != transient_glyph

    def test_render_classification_includes_verdict(self):
        classification = self.make_classification()
        text = render_classification(classification)
        assert "TRANSIENT" in text
        assert "T1" in text
