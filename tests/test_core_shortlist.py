"""Tests for shortlisting (step 3): each pruning heuristic in isolation."""

from datetime import date, timedelta

from repro.core.patterns import classify_dataset
from repro.core.shortlist import ShortlistConfig, Shortlister
from repro.ipintel.as2org import AS2Org
from repro.scan.dataset import ScanDataset

from tests.helpers import ALL_PERIODS, PERIOD, ScanSketch, make_cert, scan_dates

DATES = scan_dates()


def period_dates(period) -> tuple[date, ...]:
    return tuple(
        d for d in (period.start + timedelta(days=7 * i) for i in range(26))
        if period.contains(d)
    )


#: The scan calendar: the weeks of the period before, the sketches'
#: period and the period after.
CALENDAR = period_dates(ALL_PERIODS[0]) + DATES + period_dates(ALL_PERIODS[2])


def make_as2org() -> AS2Org:
    mapping = AS2Org()
    mapping.assign(16509, "amazon")
    mapping.assign(14618, "amazon")
    mapping.assign(100, "victim-isp")
    mapping.assign(666, "bullet-cloud")
    return mapping


def transient_sketch(
    stable_asn=100,
    stable_cc="GR",
    transient_asn=666,
    transient_cc="NL",
    transient_name="mail.x.gr",
    trusted=True,
    stable_dates=DATES,
    transient_dates=DATES[12:13],
) -> ScanSketch:
    stable = make_cert("www.x.gr", 1, date(2018, 12, 1))
    rogue = make_cert(transient_name, 2, date(2019, 3, 20), issuer="Let's Encrypt")
    return (
        ScanSketch("x.gr")
        .presence(stable_dates, "10.0.0.1", stable_asn, stable_cc, stable)
        .presence(transient_dates, "203.0.113.5", transient_asn, transient_cc, rogue, trusted=trusted)
    )


def evaluate(sketch: ScanSketch, as2org=None, config=None, neighbors=()):
    """Shortlist the sketch; ``neighbors`` add records in the adjacent periods."""
    records = sketch.records + [r for n in neighbors for r in n.records]
    dataset = ScanDataset(records, CALENDAR)
    classifications = classify_dataset(dataset, ALL_PERIODS)
    shortlister = Shortlister(as2org or make_as2org(), dataset, config)
    return shortlister.evaluate(classifications)


class TestKeepRule:
    def test_sensitive_cross_as_cross_country_transient_kept(self):
        entries, decisions = evaluate(transient_sketch())
        assert len(entries) == 1
        entry = entries[0]
        assert entry.domain == "x.gr"
        assert entry.sensitive_names == ("mail.x.gr",)
        assert entry.transient_asn == 666
        assert not entry.truly_anomalous

    def test_non_sensitive_pruned(self):
        entries, decisions = evaluate(transient_sketch(transient_name="static.x.gr"))
        assert entries == []
        assert any(d.reason == "no-sensitive-name" for d in decisions)

    def test_untrusted_cert_pruned(self):
        entries, _ = evaluate(transient_sketch(trusted=False))
        assert entries == []

    def test_truly_anomalous_kept_despite_non_sensitive_name(self):
        sketch = transient_sketch(transient_name="static.x.gr")
        stable = make_cert("www.x.gr", 1, date(2018, 1, 1), days=900)
        neighbors = [
            ScanSketch("x.gr").presence(period_dates(period), "10.0.0.1", 100, "GR", stable)
            for period in (ALL_PERIODS[0], ALL_PERIODS[2])
        ]
        entries, _ = evaluate(sketch, neighbors=neighbors)
        assert len(entries) == 1
        assert entries[0].truly_anomalous


class TestPrunes:
    def test_org_related_pruned(self):
        """Amazon AS16509 stable + AS14618 transient: same organization."""
        entries, decisions = evaluate(
            transient_sketch(stable_asn=16509, transient_asn=14618)
        )
        assert entries == []
        assert any(d.reason == "org-related-asn" for d in decisions)

    def test_same_country_pruned(self):
        entries, decisions = evaluate(transient_sketch(transient_cc="GR"))
        assert entries == []
        assert any(d.reason == "same-country" for d in decisions)

    def test_low_visibility_pruned(self):
        """Domain missing from more than 20% of the period's scans."""
        entries, decisions = evaluate(
            transient_sketch(stable_dates=DATES[::2])  # present in half the scans
        )
        assert entries == []
        assert any(d.reason == "low-visibility" for d in decisions)

    def test_recurring_transients_pruned(self):
        """Similar transients in three or more consecutive periods."""
        sketch = transient_sketch()
        stable = make_cert("www.x.gr", 1, date(2018, 1, 1), days=900)
        rogue2 = make_cert("mail.x.gr", 3, date(2018, 9, 1), issuer="Let's Encrypt")
        neighbors = []
        for period in (ALL_PERIODS[0], ALL_PERIODS[2]):
            other_dates = period_dates(period)
            neighbors.append(
                ScanSketch("x.gr")
                .presence(other_dates, "10.0.0.1", 100, "GR", stable)
                .presence(other_dates[5:6], "203.0.113.9", 666, "NL", rogue2)
            )
        entries, decisions = evaluate(sketch, neighbors=neighbors)
        assert all(e.domain != "x.gr" or e.period_index != PERIOD.index for e in entries) or not entries
        assert any(d.reason == "recurring-transients" for d in decisions)

    def test_config_thresholds(self):
        # With a permissive visibility threshold the half-present domain passes.
        entries, _ = evaluate(
            transient_sketch(stable_dates=DATES[::2]),
            config=ShortlistConfig(min_presence=0.4),
        )
        assert len(entries) == 1


class TestEntryMetadata:
    def test_transient_records_attached(self):
        entries, _ = evaluate(transient_sketch())
        entry = entries[0]
        assert len(entry.transient_records) == 1
        assert entry.transient_records[0].ip == "203.0.113.5"
        assert entry.transient_ips == frozenset({"203.0.113.5"})
