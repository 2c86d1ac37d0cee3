"""Tests for inspection (step 4): the codified manual corroboration rules."""

from datetime import date, timedelta

from repro.core.inspection import InspectionConfig, Inspector
from repro.core.patterns import classify_dataset
from repro.core.shortlist import Shortlister
from repro.core.types import DetectionType, Verdict
from repro.ct.log import CTLog
from repro.ct.crtsh import CrtShService
from repro.dns.records import RRType
from repro.ipintel.as2org import AS2Org
from repro.pdns.database import PassiveDNSDatabase
from repro.tls.revocation import RevocationRegistry

from tests.helpers import PERIOD, ScanSketch, make_cert, scan_dates

DATES = scan_dates()
ATTACKER_IP = "203.0.113.5"
HIJACK_DAY = DATES[12] - timedelta(days=2)


def shortlist_entry(sketch: ScanSketch, truly_anomalous=False):
    dataset = sketch.dataset()
    classifications = classify_dataset(dataset, (PERIOD,))
    entries, _ = Shortlister(AS2Org(), dataset).evaluate(classifications)
    assert entries, "sketch must produce a shortlisted transient"
    entry = entries[0]
    if truly_anomalous:
        entry.truly_anomalous = True
    return entry


def t1_sketch(rogue_cert):
    stable = make_cert("www.x.gr", 1, date(2018, 12, 1))
    return (
        ScanSketch("x.gr")
        .presence(DATES, "10.0.0.1", 100, "GR", stable)
        .presence(DATES[12:13], ATTACKER_IP, 666, "NL", rogue_cert)
    )


def t2_sketch():
    stable = make_cert("mail.x.gr", 1, date(2018, 12, 1))
    return (
        ScanSketch("x.gr")
        .presence(DATES, "10.0.0.1", 100, "GR", stable)
        .presence(DATES[12:13], ATTACKER_IP, 666, "NL", stable)
    )


def make_inspector(pdns=None, certs_to_log=()):
    log = CTLog()
    for cert, logged_on in certs_to_log:
        log.submit(cert, logged_on)
    crtsh = CrtShService([log], RevocationRegistry(), asof=date(2021, 1, 1))
    return Inspector(pdns or PassiveDNSDatabase(), crtsh), crtsh, log


class TestT1Rule:
    def rogue_cert(self, issued=HIJACK_DAY - timedelta(days=1)):
        return make_cert("mail.x.gr", 2, issued, days=90, issuer="Let's Encrypt")

    def test_hijacked_with_a_redirect_near_issuance(self):
        rogue = self.rogue_cert()
        pdns = PassiveDNSDatabase()
        pdns.add_observation("mail.x.gr", RRType.A, ATTACKER_IP, HIJACK_DAY)
        inspector, _, _ = make_inspector(pdns)
        result = inspector.inspect(shortlist_entry(t1_sketch(rogue)))
        assert result.verdict is Verdict.HIJACKED
        assert result.detection is DetectionType.T1
        assert ATTACKER_IP in result.attacker_ips

    def test_hijacked_with_ns_change_near_issuance(self):
        rogue = self.rogue_cert()
        pdns = PassiveDNSDatabase()
        # Long-lived legitimate delegation...
        for offset in range(0, 170, 7):
            pdns.add_observation(
                "x.gr", RRType.NS, "ns1.x.gr", PERIOD.start + timedelta(days=offset)
            )
        # ...and a one-day rogue delegation at hijack time.
        pdns.add_observation("x.gr", RRType.NS, "ns1.rogue.net", HIJACK_DAY)
        inspector, _, _ = make_inspector(pdns)
        result = inspector.inspect(shortlist_entry(t1_sketch(rogue)))
        assert result.verdict is Verdict.HIJACKED
        assert result.attacker_ns == frozenset({"ns1.rogue.net"})

    def test_no_pdns_defers_to_t1_star(self):
        rogue = self.rogue_cert()
        inspector, _, _ = make_inspector()
        result = inspector.inspect(shortlist_entry(t1_sketch(rogue)))
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.pending_t1_star

    def test_t1_star_second_pass_upgrades_on_shared_ip(self):
        rogue = self.rogue_cert()
        inspector, _, _ = make_inspector()
        result = inspector.inspect(shortlist_entry(t1_sketch(rogue)))
        upgraded = Inspector.resolve_t1_star([result], frozenset({ATTACKER_IP}))
        assert upgraded == [result]
        assert result.verdict is Verdict.HIJACKED
        assert result.detection is DetectionType.T1_STAR

    def test_t1_star_second_pass_ignores_unrelated_ip(self):
        rogue = self.rogue_cert()
        inspector, _, _ = make_inspector()
        result = inspector.inspect(shortlist_entry(t1_sketch(rogue)))
        assert Inspector.resolve_t1_star([result], frozenset({"198.51.100.1"})) == []
        assert result.verdict is Verdict.INCONCLUSIVE

    def test_stale_certificate_is_benign(self):
        """Cert issued months before the transient, nothing in pDNS/CT:
        a legitimate deployment briefly visible (the 8143->1256 prune)."""
        rogue = self.rogue_cert(issued=HIJACK_DAY - timedelta(days=150))
        inspector, _, _ = make_inspector()
        result = inspector.inspect(shortlist_entry(t1_sketch(rogue)))
        assert result.verdict is Verdict.BENIGN
        assert result.evidence.stale_certificate

    def test_redirect_far_from_issuance_not_corroborated(self):
        rogue = self.rogue_cert(issued=HIJACK_DAY - timedelta(days=150))
        pdns = PassiveDNSDatabase()
        pdns.add_observation("mail.x.gr", RRType.A, ATTACKER_IP, HIJACK_DAY)
        inspector, _, _ = make_inspector(pdns)
        result = inspector.inspect(shortlist_entry(t1_sketch(rogue)))
        assert result.verdict is Verdict.INCONCLUSIVE


class TestT2Rule:
    def suspicious_ct_cert(self):
        return make_cert(
            "mail.x.gr", 9, HIJACK_DAY - timedelta(days=1), days=90, issuer="Let's Encrypt"
        )

    def test_hijacked_with_pdns_and_ct(self):
        pdns = PassiveDNSDatabase()
        pdns.add_observation("mail.x.gr", RRType.A, ATTACKER_IP, HIJACK_DAY)
        suspicious = self.suspicious_ct_cert()
        inspector, _, _ = make_inspector(
            pdns, certs_to_log=[(suspicious, suspicious.not_before)]
        )
        result = inspector.inspect(shortlist_entry(t2_sketch()))
        assert result.verdict is Verdict.HIJACKED
        assert result.detection is DetectionType.T2
        assert result.malicious_cert is not None
        assert result.malicious_cert.certificate.fingerprint == suspicious.fingerprint

    def test_redirect_without_certificate_is_targeted(self):
        """The ais.gov.vn rule."""
        pdns = PassiveDNSDatabase()
        pdns.add_observation("mail.x.gr", RRType.A, ATTACKER_IP, HIJACK_DAY)
        inspector, _, _ = make_inspector(pdns)
        result = inspector.inspect(shortlist_entry(t2_sketch()))
        assert result.verdict is Verdict.TARGETED

    def test_truly_anomalous_without_corroboration_is_targeted(self):
        inspector, _, _ = make_inspector()
        result = inspector.inspect(shortlist_entry(t2_sketch(), truly_anomalous=True))
        assert result.verdict is Verdict.TARGETED

    def test_plain_t2_without_corroboration_inconclusive(self):
        inspector, _, _ = make_inspector()
        result = inspector.inspect(shortlist_entry(t2_sketch()))
        assert result.verdict is Verdict.INCONCLUSIVE

    def test_legitimate_rollover_not_suspicious(self):
        """A renewal repeating (SAN set, issuer) must not corroborate."""
        pdns = PassiveDNSDatabase()
        pdns.add_observation("mail.x.gr", RRType.A, ATTACKER_IP, HIJACK_DAY)
        older = make_cert("mail.x.gr", 5, PERIOD.start - timedelta(days=80), issuer="DigiCert Inc")
        renewal = make_cert("mail.x.gr", 6, HIJACK_DAY - timedelta(days=1), issuer="DigiCert Inc")
        inspector, _, _ = make_inspector(
            pdns,
            certs_to_log=[(older, older.not_before), (renewal, renewal.not_before)],
        )
        result = inspector.inspect(shortlist_entry(t2_sketch()))
        # Renewal excluded -> no CT corroboration -> targeted (pDNS only).
        assert result.verdict is Verdict.TARGETED
        assert result.evidence.ct_entries == []
