"""Property-based tests over the core data structures and invariants.

Random deployment histories are generated as compact "presence specs"
(per-ASN lists of scan-index runs with a certificate id), turned into
annotated records, and pushed through deployment mapping and
classification.  The invariants checked are the ones the methodology's
correctness rests on.
"""

from datetime import date

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import PatternConfig, classify_dataset
from repro.core.types import PatternKind
from repro.dns.records import RRType
from repro.net.timeline import TRANSIENT_MAX_DAYS
from repro.pdns.database import PassiveDNSDatabase

from tests.helpers import PERIOD, ScanSketch, make_cert, scan_dates

DATES = scan_dates()

# One deployment's presence: (asn_offset, start_index, length, cert_id).
_presence = st.tuples(
    st.integers(min_value=0, max_value=4),   # asn selector
    st.integers(min_value=0, max_value=24),  # first scan index
    st.integers(min_value=1, max_value=26),  # run length
    st.integers(min_value=0, max_value=3),   # certificate selector
)
_history = st.lists(_presence, min_size=1, max_size=6)


def _classify(sketch: ScanSketch, config: PatternConfig | None = None):
    """The sketch's PERIOD classification through the production kernels."""
    return classify_dataset(sketch.dataset(), (PERIOD,), config)[("prop.com", PERIOD.index)]


def _sketch_from(history) -> ScanSketch:
    sketch = ScanSketch("prop.com")
    certs = {
        i: make_cert(f"www{i}.prop.com", 100 + i, date(2018, 12, 1)) for i in range(4)
    }
    for asn_sel, start, length, cert_sel in history:
        dates = DATES[start : min(start + length, len(DATES))]
        if not dates:
            continue
        sketch.presence(
            dates, f"10.{asn_sel}.0.1", 1000 + asn_sel, "US", certs[cert_sel]
        )
    return sketch


class TestDeploymentInvariants:
    @settings(max_examples=60)
    @given(_history)
    def test_groups_partition_records(self, history):
        """Every in-period record lands in exactly one deployment group,
        and group dates/ASNs cover exactly the record set."""
        sketch = _sketch_from(history)
        map_ = _classify(sketch).map
        record_cells = {(r.scan_date, r.asn) for r in sketch.records}
        group_cells = {
            (g.scan_date, g.asn) for d in map_.deployments for g in d.groups
        }
        assert group_cells == record_cells

    @settings(max_examples=60)
    @given(_history)
    def test_deployments_ordered_and_asn_homogeneous(self, history):
        sketch = _sketch_from(history)
        map_ = _classify(sketch).map
        for deployment in map_.deployments:
            dates = deployment.dates()
            assert list(dates) == sorted(dates)
            assert deployment.first_seen <= deployment.last_seen
            assert all(g.asn == deployment.asn for g in deployment.groups)

    @settings(max_examples=60)
    @given(_history)
    def test_presence_bounded(self, history):
        sketch = _sketch_from(history)
        map_ = _classify(sketch).map
        assert 0.0 <= map_.presence <= 1.0


class TestClassifierInvariants:
    @settings(max_examples=80)
    @given(_history)
    def test_every_map_gets_exactly_one_kind(self, history):
        sketch = _sketch_from(history)
        classification = _classify(sketch)
        assert classification.kind in PatternKind

    @settings(max_examples=80)
    @given(_history)
    def test_transient_requires_stable_background(self, history):
        """A TRANSIENT verdict always coexists with a stable deployment —
        the definition in Section 4.2.3."""
        sketch = _sketch_from(history)
        classification = _classify(sketch)
        if classification.kind is PatternKind.TRANSIENT:
            assert classification.stable
            assert classification.transients

    @settings(max_examples=80)
    @given(_history)
    def test_transients_respect_threshold(self, history):
        sketch = _sketch_from(history)
        classification = _classify(sketch)
        for transient in classification.transients:
            if classification.kind is PatternKind.TRANSIENT:
                assert transient.span_days <= TRANSIENT_MAX_DAYS

    @settings(max_examples=40)
    @given(_history, st.integers(min_value=7, max_value=183))
    def test_monotone_in_threshold(self, history, threshold):
        """Raising the transient threshold never *removes* a transient
        verdict's transients (it may add more)."""
        sketch = _sketch_from(history)
        narrow = _classify(sketch, PatternConfig(transient_max_days=threshold))
        wide = _classify(sketch, PatternConfig(transient_max_days=threshold + 30))
        if narrow.kind is PatternKind.TRANSIENT:
            narrow_set = {(t.asn, t.first_seen) for t in narrow.transients}
            wide_set = {(t.asn, t.first_seen) for t in wide.transients}
            assert narrow_set <= wide_set or wide.kind is not PatternKind.TRANSIENT


_pdns_obs = st.tuples(
    st.sampled_from(["mail.a.gov.kg", "www.a.gov.kg", "a.gov.kg"]),
    st.sampled_from([RRType.A, RRType.NS]),
    st.sampled_from(["10.0.0.1", "10.0.0.2", "ns1.a.gov.kg", "203.0.113.5"]),
    st.integers(min_value=0, max_value=400),
)


class TestPdnsInvariants:
    @settings(max_examples=60)
    @given(st.lists(_pdns_obs, min_size=1, max_size=50))
    def test_aggregation_laws(self, observations):
        """first <= last; count equals observation count; spans contain
        every observed day."""
        db = PassiveDNSDatabase()
        expected: dict = {}
        base = date(2020, 1, 1)
        from datetime import timedelta

        for rrname, rtype, rdata, offset in observations:
            day = base + timedelta(days=offset)
            db.add_observation(rrname, rtype, rdata, day)
            key = (rrname, rtype, rdata.lower().rstrip(".") if rtype is RRType.NS else rdata)
            bucket = expected.setdefault(key, [])
            bucket.append(day)

        for record in db.all_records():
            key = (record.rrname, record.rtype, record.rdata)
            days = expected[key]
            assert record.first_seen == min(days)
            assert record.last_seen == max(days)
            assert record.count == len(days)
            assert record.span_days >= 1

    @settings(max_examples=40)
    @given(st.lists(_pdns_obs, min_size=1, max_size=50))
    def test_inverse_index_consistent(self, observations):
        """Everything findable forward is findable through the inverse
        (pivot) index and vice versa."""
        db = PassiveDNSDatabase()
        base = date(2020, 1, 1)
        from datetime import timedelta

        for rrname, rtype, rdata, offset in observations:
            db.add_observation(rrname, rtype, rdata, base + timedelta(days=offset))

        for record in db.all_records():
            forward = db.query_name(record.rrname, record.rtype)
            assert any(r.rdata == record.rdata for r in forward)
            inverse = db.query_rdata(record.rdata, record.rtype)
            assert any(r.rrname == record.rrname for r in inverse)
