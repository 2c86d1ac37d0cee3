"""Tests for deployment-map construction (step 1)."""

from datetime import date

from repro.core.deployment import build_domain_maps
from repro.core.patterns import classify_dataset

from tests.helpers import PERIOD, ScanSketch, make_cert, scan_dates


def map_of(sketch: ScanSketch):
    """The sketch's one deployment map for PERIOD (max gap: 6 scans)."""
    ((key, map_),) = build_domain_maps(sketch.dataset(), sketch.domain, (PERIOD,))
    assert key == (sketch.domain, PERIOD.index)
    return map_


class TestDeploymentGrouping:
    def test_single_asn_forms_one_deployment(self):
        dates = scan_dates()
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        sketch = ScanSketch("x.gr").presence(dates, "10.0.0.1", 100, "GR", cert)
        map_ = map_of(sketch)
        assert len(map_.deployments) == 1
        deployment = map_.deployments[0]
        assert deployment.asn == 100
        assert deployment.scan_count == len(dates)
        assert deployment.first_seen == dates[0]
        assert deployment.last_seen == dates[-1]
        assert map_.presence == 1.0

    def test_two_asns_same_date_form_two_groups(self):
        dates = scan_dates()
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        sketch = (
            ScanSketch("x.gr")
            .presence(dates, "10.0.0.1", 100, "GR", cert)
            .presence(dates[10:12], "20.0.0.1", 200, "NL", cert)
        )
        map_ = map_of(sketch)
        assert {d.asn for d in map_.deployments} == {100, 200}
        transient = map_.deployments_for_asn(200)[0]
        assert transient.scan_count == 2
        assert transient.countries == frozenset({"NL"})

    def test_gap_splits_deployment(self):
        dates = scan_dates()
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        sketch = (
            ScanSketch("x.gr")
            .presence(dates[:3], "10.0.0.1", 100, "GR", cert)
            .presence(dates[-3:], "10.0.0.1", 100, "GR", cert)
        )
        map_ = map_of(sketch)
        assert len(map_.deployments) == 2
        assert all(d.asn == 100 for d in map_.deployments)

    def test_small_gap_does_not_split(self):
        dates = scan_dates()
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        sketch = (
            ScanSketch("x.gr")
            .presence(dates[:10], "10.0.0.1", 100, "GR", cert)
            .presence(dates[13:], "10.0.0.1", 100, "GR", cert)
        )
        map_ = map_of(sketch)
        assert len(map_.deployments) == 1

    def test_ips_and_certs_accumulate(self):
        dates = scan_dates()
        a = make_cert("www.x.gr", 1, date(2018, 12, 1))
        b = make_cert("www.x.gr", 2, date(2019, 3, 1))
        sketch = (
            ScanSketch("x.gr")
            .presence(dates[:13], "10.0.0.1", 100, "GR", a)
            .presence(dates[13:], "10.0.0.2", 100, "GR", b)
        )
        map_ = map_of(sketch)
        deployment = map_.deployments[0]
        assert deployment.ips == frozenset({"10.0.0.1", "10.0.0.2"})
        assert len(deployment.cert_fingerprints) == 2

    def test_records_outside_period_ignored(self):
        dates = scan_dates()
        cert = make_cert("www.x.gr", 1, date(2018, 1, 1))
        sketch = ScanSketch("x.gr").presence(
            (date(2018, 8, 5),) + dates[:4], "10.0.0.1", 100, "GR", cert
        )
        map_ = map_of(sketch)
        assert map_.deployments[0].first_seen >= PERIOD.start


class TestBuildAll:
    def test_maps_keyed_by_domain_and_period(self):
        dates = scan_dates()
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        dataset = ScanSketch("x.gr").presence(dates, "10.0.0.1", 100, "GR", cert).dataset()
        maps = classify_dataset(dataset, (PERIOD,))
        assert set(maps) == {("x.gr", PERIOD.index)}

    def test_no_map_for_invisible_period(self):
        from tests.helpers import ALL_PERIODS

        dates = scan_dates()
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        dataset = ScanSketch("x.gr").presence(dates, "10.0.0.1", 100, "GR", cert).dataset()
        maps = classify_dataset(dataset, ALL_PERIODS)
        assert ("x.gr", 1) in maps
        assert ("x.gr", 0) not in maps  # no scan dates in dataset for period 0
        assert ("x.gr", 2) not in maps
