"""Differential property tests: columnar data plane vs the row path.

Arbitrary multi-domain scan histories are generated as presence specs,
and every query the pipeline makes of a dataset — the row view, presence
counting, fault degradation, and full deployment mapping — is answered
twice: once through the columnar ScanTable kernels and once through the
original row-at-a-time reference implementations.  The two answers must
be identical, including ordering, which is the equivalence the golden
byte-identity acceptance rests on.
"""

from datetime import date

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import classify_dataset
from repro.io.datasets import load_scan_dataset, save_scan_dataset
from repro.scan.annotate import Annotator
from repro.scan.dataset import ScanDataset
from repro.scan.engine import RawScanObservation
from repro.tls.truststore import TrustStore

from tests.helpers import ALL_PERIODS, PERIOD, ScanSketch, make_cert, scan_dates
from tests.reference import build_deployment_map

DATES = scan_dates()
DOMAINS = ("alpha.com", "beta.org", "gamma.net")

# One presence run: (domain, asn selector, first scan index, length, cert).
_presence = st.tuples(
    st.integers(min_value=0, max_value=2),   # domain selector
    st.integers(min_value=0, max_value=4),   # asn selector
    st.integers(min_value=0, max_value=24),  # first scan index
    st.integers(min_value=1, max_value=26),  # run length
    st.integers(min_value=0, max_value=3),   # certificate selector
)
_history = st.lists(_presence, min_size=1, max_size=8)


def _dataset_from(history) -> ScanDataset:
    sketches = {d: ScanSketch(d) for d in DOMAINS}
    certs = {
        (d, i): make_cert(f"www{i}.{d}", 500 + 10 * di + i, date(2018, 12, 1))
        for di, d in enumerate(DOMAINS)
        for i in range(4)
    }
    for dom_sel, asn_sel, start, length, cert_sel in history:
        domain = DOMAINS[dom_sel]
        dates = DATES[start : min(start + length, len(DATES))]
        if not dates:
            continue
        sketches[domain].presence(
            dates,
            f"10.{dom_sel}.{asn_sel}.1",
            1000 + asn_sel,
            "US" if asn_sel % 2 == 0 else "DE",
            certs[(domain, cert_sel)],
        )
    records = [r for sketch in sketches.values() for r in sketch.records]
    return ScanDataset(records, DATES)


def _groups_of(map_):
    return [
        [
            (g.domain, g.scan_date, g.asn, g.ips, g.cert_fingerprints, g.countries)
            for g in deployment.groups
        ]
        for deployment in map_.deployments
    ]


class TestKernelEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_columnar_maps_equal_row_path(self, history):
        """The encoded-then-decoded maps == the row-path oracle, including
        deployment order and group order."""
        dataset = _dataset_from(history)
        columnar = {
            key: classification.map
            for key, classification in classify_dataset(dataset, ALL_PERIODS).items()
        }
        for domain in dataset.domains():
            records = list(dataset.records_for(domain))
            for period in ALL_PERIODS:
                dates_in_period = dataset.scan_dates_in(period)
                has_rows = any(period.contains(r.scan_date) for r in records)
                key = (domain, period.index)
                if not dates_in_period or not has_rows:
                    assert key not in columnar
                    continue
                oracle = build_deployment_map(
                    domain, records, period, dates_in_period
                )
                assert _groups_of(columnar[key]) == _groups_of(oracle)

    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_records_for_matches_row_store_order(self, history):
        dataset = _dataset_from(history)
        for domain in dataset.domains():
            view = dataset.records_for(domain)
            expected = sorted(
                (r for r in dataset.records() if domain in r.base_domains),
                key=lambda r: (r.scan_date, r.ip),
            )
            assert list(view) == expected

    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_presence_matches_definition(self, history):
        dataset = _dataset_from(history)
        for domain in dataset.domains():
            seen = {
                r.scan_date
                for r in dataset.records_for(domain)
                if PERIOD.contains(r.scan_date)
            }
            expected = len(seen) / len(dataset.scan_dates_in(PERIOD))
            assert dataset.presence(domain, PERIOD) == expected


class TestDegradedEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(_history, st.sets(st.integers(min_value=0, max_value=25), max_size=6))
    def test_degraded_equals_record_filter(self, history, drop_indices):
        """Columnar degradation == filtering the record stream by hand."""
        dataset = _dataset_from(history)
        drop_dates = {DATES[i] for i in drop_indices}
        degraded = dataset.degraded(
            drop_dates=drop_dates,
            drop_row=lambda ordinal, ip, fp: ip.endswith(".0.1"),
        )
        expected = [
            r
            for r in dataset.records()
            if r.scan_date not in drop_dates and not r.ip.endswith(".0.1")
        ]
        assert degraded.records() == expected
        assert degraded.known_missing_dates == frozenset(drop_dates)
        # The derived table's ids must equal a fresh build's (the
        # cache-safety invariant select() re-interning provides).
        rebuilt = ScanDataset(expected, DATES)
        assert list(degraded.table.row_dicts()) == list(rebuilt.table.row_dicts())
        for column in ("ip_id", "asn_id", "cert_id", "country_id"):
            assert getattr(degraded.table, column) == getattr(rebuilt.table, column)


class TestDoubleDegradation:
    @settings(max_examples=50, deadline=None)
    @given(
        _history,
        st.sets(st.integers(min_value=0, max_value=25), max_size=4),
        st.sets(st.integers(min_value=0, max_value=25), max_size=4),
    )
    def test_degrading_a_degraded_dataset(self, history, first_drop, second_drop):
        """Regression: ``select()`` on an already-derived table.  The
        first degradation memoizes ``records_for`` views and per-row
        record objects on its table; the second must re-intern from the
        surviving rows, never serve a stale parent memo, and fold both
        rounds' dropped scans into ``known_missing_dates``."""
        dataset = _dataset_from(history)
        drop_a = {DATES[i] for i in first_drop}
        once = dataset.degraded(drop_dates=drop_a)
        # Prime every memo on the intermediate table before deriving
        # from it again — the regression this pins was only reachable
        # with warm memos.
        for domain in once.domains():
            once.records_for(domain)
        once.records()
        drop_b = {DATES[i] for i in second_drop}
        twice = once.degraded(
            drop_dates=drop_b,
            drop_row=lambda ordinal, ip, fp: ip.endswith(".0.1"),
        )
        expected = [
            r
            for r in dataset.records()
            if r.scan_date not in drop_a
            and r.scan_date not in drop_b
            and not r.ip.endswith(".0.1")
        ]
        assert twice.records() == expected
        assert twice.known_missing_dates == frozenset(drop_a | drop_b)
        for domain in dataset.domains():
            want = sorted(
                (r for r in expected if domain in r.base_domains),
                key=lambda r: (r.scan_date, r.ip),
            )
            assert list(twice.records_for(domain)) == want
        rebuilt = ScanDataset(expected, DATES)
        assert list(twice.table.row_dicts()) == list(rebuilt.table.row_dicts())
        for column in ("ip_id", "asn_id", "cert_id", "country_id"):
            assert getattr(twice.table, column) == getattr(rebuilt.table, column)
        # The intermediate view is untouched by the second derivation.
        assert once.records() == [
            r for r in dataset.records() if r.scan_date not in drop_a
        ]


class TestIORoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_save_load_preserves_columns_and_interning(self, tmp_path_factory, history):
        dataset = _dataset_from(history)
        path = tmp_path_factory.mktemp("ds") / "scan.jsonl"
        save_scan_dataset(dataset, path)
        loaded = load_scan_dataset(path)
        assert list(loaded.table.row_dicts()) == list(dataset.table.row_dicts())
        assert loaded.scan_dates == dataset.scan_dates
        assert loaded.records() == dataset.records()
        # Interning survives the trip: one certificate object per
        # fingerprint, pools sized identically.
        assert len(loaded.table.certs) == len(dataset.table.certs)
        assert loaded.table.ips == dataset.table.ips


class _CountingRouting:
    def __init__(self, asn: int = 64500) -> None:
        self.lookups = 0
        self._asn = asn

    def lookup(self, ip: str):
        self.lookups += 1
        return self._asn


class _CountingGeo:
    def __init__(self) -> None:
        self.lookups = 0

    def lookup(self, ip: str):
        self.lookups += 1
        return "US"


class TestAnnotatorMemoization:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),   # ip selector
                st.integers(min_value=0, max_value=12),  # scan index
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_ip_intel_paid_once_per_distinct_ip(self, hits):
        """Routing/geo lookups are memoized across scan dates: the join
        cost is one lookup per distinct IP, not one per observation."""
        cert = make_cert("www.memo.com", 900, date(2018, 12, 1))
        observations = [
            RawScanObservation(
                scan_date=DATES[day], ip=f"10.9.0.{ip_sel}", port=443, certificate=cert
            )
            for ip_sel, day in hits
        ]
        routing = _CountingRouting()
        geo = _CountingGeo()
        annotator = Annotator(routing, geo, TrustStore())
        records = annotator.annotate(observations)
        distinct_ips = len({o.ip for o in observations})
        assert routing.lookups == distinct_ips
        assert geo.lookups == distinct_ips
        assert all(r.asn == 64500 and r.country == "US" for r in records)

    def test_annotate_dataset_equals_annotate(self):
        cert = make_cert("www.memo.com", 901, date(2018, 12, 1))
        observations = [
            RawScanObservation(
                scan_date=DATES[i % 5], ip=f"10.9.1.{i % 3}", port=443, certificate=cert
            )
            for i in range(12)
        ]
        annotator = Annotator(_CountingRouting(), _CountingGeo(), TrustStore())
        via_records = ScanDataset(annotator.annotate(observations), DATES)
        via_table = Annotator(
            _CountingRouting(), _CountingGeo(), TrustStore()
        ).annotate_dataset(observations, DATES)
        assert via_table.records() == via_records.records()
        assert list(via_table.table.row_dicts()) == list(
            via_records.table.row_dicts()
        )
