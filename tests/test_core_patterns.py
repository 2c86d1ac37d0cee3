"""Tests for pattern classification (step 2): every canonical shape of
Figures 3, 4, and 5 of the paper must classify to its pattern."""

from datetime import date

import pytest

from repro.analysis.gallery import gallery
from repro.analysis.gallery import DATES as GALLERY_DATES
from repro.analysis.gallery import PERIOD as GALLERY_PERIOD
from repro.core.patterns import (
    ENCODED_KINDS,
    PatternConfig,
    classify_dataset,
    classify_encoded,
)
from repro.core.types import PatternKind, SubPattern
from repro.scan.dataset import ScanDataset

from tests.helpers import PERIOD, ScanSketch, make_cert, scan_dates

DATES = scan_dates()


def classify_sketch(sketch: ScanSketch, config: PatternConfig | None = None):
    classifications = classify_dataset(sketch.dataset(), (PERIOD,), config)
    return classifications[(sketch.domain, PERIOD.index)]


class TestStablePatterns:
    def test_s1_single_deployment_single_cert(self):
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        result = classify_sketch(
            ScanSketch("x.gr").presence(DATES, "10.0.0.1", 100, "GR", cert)
        )
        assert result.kind is PatternKind.STABLE
        assert result.subpatterns == (SubPattern.S1,)

    def test_s2_certificate_rollover(self):
        old = make_cert("www.x.gr", 1, date(2018, 12, 1), days=120)
        new = make_cert("www.x.gr", 2, date(2019, 3, 25), days=120)
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES[:13], "10.0.0.1", 100, "GR", old)
            .presence(DATES[13:], "10.0.0.1", 100, "GR", new)
        )
        assert result.kind is PatternKind.STABLE
        assert SubPattern.S2 in result.subpatterns

    def test_s3_new_geography_same_as(self):
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", cert)
            .presence(DATES[10:], "10.1.0.1", 100, "DE", cert)
        )
        assert result.kind is PatternKind.STABLE
        assert SubPattern.S3 in result.subpatterns

    def test_s4_additional_certificate_same_infra(self):
        main = make_cert("www.x.gr", 1, date(2018, 12, 1))
        extra = make_cert("app.x.gr", 2, date(2019, 3, 1))
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", main)
            .presence(DATES[9:], "10.0.0.1", 100, "GR", extra)
        )
        assert result.kind is PatternKind.STABLE
        assert SubPattern.S4 in result.subpatterns


class TestTransitionPatterns:
    def test_x1_expansion_same_cert(self):
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", cert)
            .presence(DATES[12:], "20.0.0.1", 200, "US", cert)
        )
        assert result.kind is PatternKind.TRANSITION
        assert SubPattern.X1 in result.subpatterns

    def test_x2_expansion_new_cert(self):
        cert = make_cert("www.x.gr", 1, date(2018, 12, 1))
        cloud = make_cert("cdn.x.gr", 2, date(2019, 3, 25))
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", cert)
            .presence(DATES[12:], "20.0.0.1", 200, "US", cloud)
        )
        assert result.kind is PatternKind.TRANSITION
        assert SubPattern.X2 in result.subpatterns

    def test_x3_migration(self):
        old = make_cert("www.x.gr", 1, date(2018, 12, 1))
        new = make_cert("www.x.gr", 2, date(2019, 3, 25))
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES[:14], "10.0.0.1", 100, "GR", old)
            .presence(DATES[13:], "20.0.0.1", 200, "US", new)
        )
        assert result.kind is PatternKind.TRANSITION
        assert SubPattern.X3 in result.subpatterns


class TestTransientPatterns:
    def test_t1_new_certificate(self):
        stable = make_cert("www.x.gr", 1, date(2018, 12, 1))
        rogue = make_cert("mail.x.gr", 2, date(2019, 3, 20), issuer="Let's Encrypt")
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", stable)
            .presence(DATES[12:13], "203.0.113.5", 666, "NL", rogue)
        )
        assert result.kind is PatternKind.TRANSIENT
        assert result.subpatterns == (SubPattern.T1,)
        assert len(result.transients) == 1
        assert result.transients[0].asn == 666

    def test_t2_same_certificate_as_stable(self):
        stable = make_cert("www.x.gr", 1, date(2018, 12, 1))
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", stable)
            .presence(DATES[12:14], "203.0.113.5", 666, "NL", stable)
        )
        assert result.kind is PatternKind.TRANSIENT
        assert result.subpatterns == (SubPattern.T2,)

    def test_transient_at_period_start_still_transient(self):
        stable = make_cert("www.x.gr", 1, date(2018, 12, 1))
        rogue = make_cert("mail.x.gr", 2, date(2019, 1, 1), issuer="Let's Encrypt")
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", stable)
            .presence(DATES[1:3], "203.0.113.5", 666, "NL", rogue)
        )
        assert result.kind is PatternKind.TRANSIENT

    def test_long_transient_is_not_transient(self):
        """Beyond the three-month threshold it is not a transient."""
        stable = make_cert("www.x.gr", 1, date(2018, 12, 1))
        rogue = make_cert("mail.x.gr", 2, date(2019, 1, 10), issuer="Let's Encrypt")
        result = classify_sketch(
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", stable)
            .presence(DATES[2:17], "203.0.113.5", 666, "NL", rogue)  # ~15 weeks
        )
        assert result.kind is not PatternKind.TRANSIENT


class TestNoisy:
    def test_continual_movement_is_noisy(self):
        certs = [make_cert(f"www.x{i}.gr", i + 1, date(2019, 1, 1)) for i in range(4)]
        sketch = ScanSketch("x.gr")
        for i, cert in enumerate(certs):
            sketch.presence(DATES[i * 6 : i * 6 + 5], f"10.{i}.0.1", 100 + i, "GR", cert)
        result = classify_sketch(sketch)
        assert result.kind is PatternKind.NOISY

    def test_single_blip_without_stable_is_noisy(self):
        cert = make_cert("mail.x.gr", 1, date(2019, 3, 1))
        result = classify_sketch(
            ScanSketch("x.gr").presence(DATES[10:12], "10.0.0.1", 100, "GR", cert)
        )
        assert result.kind is PatternKind.NOISY

    def test_empty_map_is_no_data(self):
        kind_code, *_ = classify_encoded((), ())
        assert ENCODED_KINDS[kind_code] is PatternKind.NO_DATA


class TestConfig:
    def test_transient_threshold_configurable(self):
        stable = make_cert("www.x.gr", 1, date(2018, 12, 1))
        rogue = make_cert("mail.x.gr", 2, date(2019, 2, 1), issuer="Let's Encrypt")
        sketch = (
            ScanSketch("x.gr")
            .presence(DATES, "10.0.0.1", 100, "GR", stable)
            .presence(DATES[5:10], "203.0.113.5", 666, "NL", rogue)  # ~5 weeks
        )
        wide = classify_sketch(sketch, PatternConfig(transient_max_days=91))
        assert wide.kind is PatternKind.TRANSIENT
        tight = classify_sketch(sketch, PatternConfig(transient_max_days=14))
        assert tight.kind is not PatternKind.TRANSIENT


#: The kind each gallery label's first letter names.
_GALLERY_KINDS = {
    "S": PatternKind.STABLE,
    "X": PatternKind.TRANSITION,
    "T": PatternKind.TRANSIENT,
    "N": PatternKind.NOISY,
}


@pytest.mark.parametrize(
    "title,domain,records",
    list(gallery()),
    ids=[title.split()[0] for title, _, _ in gallery()],
)
def test_gallery_shape_classifies_as_titled(title, domain, records):
    """Each shape `repro-hunt gallery` renders classifies, through the
    production kernels, to the kind and sub-pattern its title names."""
    label = title.split()[0]
    dataset = ScanDataset(records, GALLERY_DATES)
    result = classify_dataset(dataset, (GALLERY_PERIOD,))[(domain, GALLERY_PERIOD.index)]
    assert result.kind is _GALLERY_KINDS[label[0]]
    assert result.subpatterns == (() if label == "NOISY" else (SubPattern[label],))
