"""Differential property tests: segment-backed tables vs in-RAM builds.

Arbitrary scan histories, pDNS observation streams, and CT submissions
are built in RAM, written as ``repro-segment/2`` files, and reopened
through the mmap-backed table subclasses.  Every query surface the
pipeline touches — interned pools, CSR slices, record materialization,
``select()`` derivation, pDNS blackout windows, CT base searches — must
answer identically from both backings; the openers change storage,
never semantics.

The corruption classes pin the other half of the format contract: a
truncated or bit-flipped segment raises a *typed* ``SegmentError``
(usually the ``SegmentChecksumError`` subclass) — never garbage rows,
never a downstream unpickling crash.  Truncation and header damage fail
the open; a flipped blob fails the first read that covers the flipped
chunk (a flip in its chunk digests fails every read of it);
``verify_segment`` fails on any of them, padding included.
"""

from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ct.log import CTLog
from repro.ct.table import CtTable
from repro.dns.records import RRType
from repro.net.timeline import DateInterval
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.epochs import read_delta
from repro.segments import (
    Segment,
    SegmentChecksumError,
    SegmentError,
    open_ct_table,
    open_pdns_table,
    open_scan_table,
    verify_segment,
    write_ct_table,
    write_pdns_table,
    write_scan_table,
)
from repro.segments import format as segment_format
from repro.segments.format import CHUNK_BYTES, MAGIC
from repro.world.scale import scale_world
from repro.tls.certificate import Certificate

from tests.helpers import ALL_PERIODS, ScanSketch, make_cert, scan_dates

DATES = scan_dates()
DOMAINS = ("alpha.com", "beta.org", "gamma.net")

_SCAN_POOLS = (
    "ips", "cert_fps", "countries", "domains",
    "port_sets", "name_sets", "base_sets",
)

# One presence run: (domain, asn selector, first scan index, length, cert).
_presence = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=1, max_value=26),
    st.integers(min_value=0, max_value=3),
)
_history = st.lists(_presence, min_size=1, max_size=8)

# One pDNS observation: (name, A-or-NS, rdata, day index).
_observation = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.booleans(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=25),
)
_observations = st.lists(_observation, min_size=1, max_size=30)

# One CT submission: (subject, serial bump, extra-SAN, day offset).
_submission = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=400),
)
_submissions = st.lists(_submission, min_size=1, max_size=20)


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


def _pdns_from(observations) -> PassiveDNSDatabase:
    db = PassiveDNSDatabase()
    names = [
        "alpha.com", "www.alpha.com", "mail.alpha.com",
        "beta.org", "www.beta.org", "gamma.net",
    ]
    for name_sel, is_a, rdata_sel, day in observations:
        if is_a:
            rtype, rdata = RRType.A, f"10.20.{rdata_sel}.1"
        else:
            rtype, rdata = RRType.NS, f"ns{rdata_sel}.dns.example.org"
        db.add_observation(names[name_sel], rtype, rdata, DATES[day])
    return db


def _ct_from(submissions) -> CtTable:
    subjects = ("alpha.com", "beta.org", "gamma.net", "delta.io", "echo.dev")
    log = CTLog(name="prop-log")
    for k, (subj_sel, bump, san_sel, day_offset) in enumerate(submissions):
        name = subjects[subj_sel]
        sans = (f"www.{name}", name)
        if san_sel != subj_sel:
            sans = sans + (subjects[san_sel],)
        cert = Certificate(
            serial=7000 + 100 * k + bump,
            common_name=f"www.{name}",
            sans=sans,
            issuer="Prop CA",
            not_before=date(2018, 6, 1) + timedelta(days=day_offset),
            not_after=date(2020, 6, 1),
        )
        log.submit(cert, date(2018, 6, 2) + timedelta(days=day_offset))
    return CtTable.from_logs([log])


def _rows(records):
    return [
        (r.rrname, r.rtype, r.rdata, r.first_seen, r.last_seen, r.count)
        for r in records
    ]


class TestScanSegmentRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_round_trip_preserves_ids_and_slices(self, tmp_path_factory, history):
        dataset = _dataset_from(history)
        table = dataset.table
        path = tmp_path_factory.mktemp("scanseg") / "scan.seg"
        write_scan_table(table, path, scan_dates=dataset.scan_dates)
        reopened = open_scan_table(path)

        assert list(reopened.row_dicts()) == list(table.row_dicts())
        for pool in _SCAN_POOLS:
            assert list(getattr(reopened, pool)) == list(getattr(table, pool))
        for domain in dataset.domains():
            assert reopened.domain_slice(domain) == table.domain_slice(domain)
            assert reopened.records_for(domain) == table.records_for(domain)
            for period in ALL_PERIODS:
                assert reopened.period_slice(
                    domain, period.start, period.end
                ) == table.period_slice(domain, period.start, period.end)

    @settings(max_examples=25, deadline=None)
    @given(_history, st.sets(st.integers(min_value=0, max_value=200), max_size=30))
    def test_select_reinterns_identically(
        self, tmp_path_factory, history, row_picks
    ):
        """``select()`` over a mapped table re-interns exactly like the
        in-RAM build — the cache-safety invariant shard products rely on."""
        dataset = _dataset_from(history)
        table = dataset.table
        rows = sorted(r for r in row_picks if r < len(table))
        path = tmp_path_factory.mktemp("scansel") / "scan.seg"
        write_scan_table(table, path, scan_dates=dataset.scan_dates)
        reopened = open_scan_table(path)

        derived_ram = table.select(rows)
        derived_seg = reopened.select(rows)
        assert list(derived_seg.row_dicts()) == list(derived_ram.row_dicts())
        for column in ("ip_id", "asn_id", "cert_id", "country_id"):
            assert list(getattr(derived_seg, column)) == list(
                getattr(derived_ram, column)
            )
        for pool in _SCAN_POOLS:
            assert list(getattr(derived_seg, pool)) == list(
                getattr(derived_ram, pool)
            )

    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_dataset_calendar_survives(self, tmp_path_factory, history):
        dataset = _dataset_from(history)
        path = tmp_path_factory.mktemp("scancal") / "scan.seg"
        write_scan_table(
            dataset.table, path,
            scan_dates=dataset.scan_dates,
            known_missing=(DATES[0], DATES[3]),
        )
        reopened = open_scan_table(path)
        restored = ScanDataset.from_table(
            reopened,
            tuple(
                date.fromordinal(o) for o in reopened.segment.meta["scan_dates"]
            ),
            known_missing_dates=tuple(
                date.fromordinal(o)
                for o in reopened.segment.meta["known_missing"]
            ),
        )
        assert restored.scan_dates == dataset.scan_dates
        assert restored.known_missing_dates == frozenset((DATES[0], DATES[3]))
        assert restored.records() == dataset.records()


class TestPdnsSegmentRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_observations)
    def test_every_query_surface_matches(self, tmp_path_factory, observations):
        db = _pdns_from(observations)
        path = tmp_path_factory.mktemp("pdnsseg") / "pdns.seg"
        write_pdns_table(db.table, path)
        reopened = PassiveDNSDatabase.from_table(open_pdns_table(path))

        assert _rows(reopened.all_records()) == _rows(db.all_records())
        assert list(reopened.table.row_dicts()) == list(db.table.row_dicts())
        window = DateInterval(DATES[5], DATES[20])
        for name in {r.rrname for r in db.all_records()}:
            for rtype in (None, RRType.A, RRType.NS):
                assert _rows(reopened.query_name(name, rtype)) == _rows(
                    db.query_name(name, rtype)
                )
            assert _rows(reopened.query_name(name, window=window)) == _rows(
                db.query_name(name, window=window)
            )
        for base in DOMAINS:
            assert _rows(reopened.query_domain(base)) == _rows(
                db.query_domain(base)
            )
        for rdata in {r.rdata for r in db.all_records()}:
            assert _rows(reopened.query_rdata(rdata)) == _rows(
                db.query_rdata(rdata)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        _observations,
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=8),
    )
    def test_without_windows_matches(
        self, tmp_path_factory, observations, start, length
    ):
        """Blackout derivation from a mapped table == from the in-RAM
        database it round-tripped from (same rows, spans, counts)."""
        db = _pdns_from(observations)
        path = tmp_path_factory.mktemp("pdnswin") / "pdns.seg"
        write_pdns_table(db.table, path)
        reopened = PassiveDNSDatabase.from_table(open_pdns_table(path))

        blackout = DateInterval(DATES[start], DATES[min(start + length, 25)])
        assert _rows(reopened.without_windows([blackout]).all_records()) == _rows(
            db.without_windows([blackout]).all_records()
        )


class TestCtSegmentRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_submissions)
    def test_round_trip_preserves_rows_and_searches(
        self, tmp_path_factory, submissions
    ):
        table = _ct_from(submissions)
        path = tmp_path_factory.mktemp("ctseg") / "ct.seg"
        write_ct_table(table, path)
        reopened = open_ct_table(path)

        assert list(reopened.row_dicts()) == list(table.row_dicts())
        assert list(reopened.bases) == list(table.bases)
        assert reopened.hidden_entries == table.hidden_entries
        after = date(2018, 8, 1).toordinal()
        for base in table.bases:
            assert reopened.search_rows(base) == table.search_rows(base)
            assert reopened.search_rows(base, after_ord=after) == table.search_rows(
                base, after_ord=after
            )
        for row in range(len(table)):
            assert reopened.certificate(row) == table.certificate(row)
            assert reopened.logged_date(row) == table.logged_date(row)


def _flip(path, position: int, bit: int = 0):
    """A copy of the segment at ``path`` with one bit flipped."""
    blob = bytearray(path.read_bytes())
    blob[position] ^= 1 << bit
    flipped = path.with_name("flipped.seg")
    flipped.write_bytes(bytes(blob))
    return flipped


def _table_surfaces(domains):
    """The scan table's public read surfaces, each a function of the table."""
    return {
        "row_dicts": lambda t: list(t.row_dicts()),
        **{
            f"pool {pool}": (lambda t, pool=pool: list(getattr(t, pool)))
            for pool in _SCAN_POOLS
        },
        **{
            f"domain {domain}": (
                lambda t, domain=domain: (t.domain_slice(domain), t.records_for(domain))
            )
            for domain in domains
        },
    }


class TestCorruptionDetection:
    """A blob verifies on its first read, not at open: a flip inside one
    raises where that blob is read.  That moves when the error is
    raised, not whether: no flip ever yields a value."""

    @settings(max_examples=30, deadline=None)
    @given(_history, st.data())
    def test_bit_flip_raises_typed_error(
        self, tmp_path_factory, history, data
    ):
        dataset = _dataset_from(history)
        table = dataset.table
        path = tmp_path_factory.mktemp("flip") / "scan.seg"
        write_scan_table(table, path, scan_dates=dataset.scan_dates)
        clean = path.read_bytes()
        size = len(clean)
        segment = Segment.open(path)
        specs = [segment.spec(name) for name in segment.names()]
        segment.close()
        # Half the flips land in the payload, which the header dwarfs.
        low = data.draw(st.sampled_from([0, min(s["offset"] for s in specs)]))
        position = data.draw(st.integers(min_value=low, max_value=size - 1))
        flipped = _flip(path, position, data.draw(st.integers(0, 7)))

        # The whole-file check catches every flip, padding included.
        with pytest.raises(SegmentChecksumError):
            verify_segment(flipped)

        # Either the open fails, or exactly the blob holding the flip in
        # its bytes or its chunk digests does.
        try:
            reopened = Segment.open(flipped)
        except SegmentError:
            pass
        else:
            for spec in specs:
                lo, hi = spec["offset"], spec["offset"] + spec["length"]
                digests = spec["digests"]
                if lo <= position < hi or digests <= position < digests + 32 * spec["chunks"]:
                    with pytest.raises(SegmentChecksumError):
                        reopened.blob(spec["name"])
                else:
                    assert reopened.blob(spec["name"]) == clean[lo:hi]

        # Every public surface of the table raises or is the clean table's.
        try:
            corrupt = open_scan_table(flipped)
        except SegmentError:
            return
        for name, surface in _table_surfaces(dataset.domains()).items():
            try:
                value = surface(corrupt)
            except SegmentError:
                continue
            assert value == surface(table), name

    def test_padding_flip_fails_verify_only(self, tmp_path):
        """Padding belongs to no blob: the whole-file check catches a
        flip there, and every read of the file still succeeds."""
        dataset = _dataset_from([(0, 0, 0, 5, 0), (1, 1, 2, 9, 1)])
        path = tmp_path / "scan.seg"
        write_scan_table(dataset.table, path, scan_dates=dataset.scan_dates)
        segment = Segment.open(path)
        spec = next(
            s
            for s in map(segment.spec, segment.names())
            if s["length"] % 8
        )
        segment.close()
        flipped = _flip(path, spec["offset"] + spec["length"])
        with pytest.raises(SegmentChecksumError):
            verify_segment(flipped)
        reopened = Segment.open(flipped)
        for name in reopened.names():
            reopened.blob(name)
        corrupt = open_scan_table(flipped)
        for name, surface in _table_surfaces(dataset.domains()).items():
            assert surface(corrupt) == surface(dataset.table), name

    def test_version_1_file_is_refused(self, tmp_path):
        """A ``repro-segment/1`` file (segment or banked delta) is a typed
        error that says to rewrite it, not a checksum failure."""
        dataset = _dataset_from([(0, 0, 0, 5, 0)])
        path = tmp_path / "scan.seg"
        write_scan_table(dataset.table, path, scan_dates=dataset.scan_dates)
        blob = path.read_bytes()
        old = tmp_path / "old.seg"
        old.write_bytes(b"repro-segment/1\n" + blob[len(MAGIC):])
        for reader in (open_scan_table, verify_segment, read_delta):
            with pytest.raises(SegmentError, match="rewrite") as caught:
                reader(old)
            assert not isinstance(caught.value, SegmentChecksumError)

    def test_version_2_file_is_refused(self, tmp_path):
        """A ``repro-segment/2`` file (one checksum per blob) is refused
        with the same advice, segment or banked delta alike."""
        dataset = _dataset_from([(0, 0, 0, 5, 0)])
        path = tmp_path / "scan.seg"
        write_scan_table(dataset.table, path, scan_dates=dataset.scan_dates)
        blob = path.read_bytes()
        old = tmp_path / "old.seg"
        old.write_bytes(b"repro-segment/2\n" + blob[len(MAGIC):])
        for reader in (open_scan_table, verify_segment, read_delta):
            with pytest.raises(SegmentError, match="rewrite") as caught:
                reader(old)
            assert not isinstance(caught.value, SegmentChecksumError)

    @settings(max_examples=20, deadline=None)
    @given(_history, st.data())
    def test_truncation_raises_typed_error(self, tmp_path_factory, history, data):
        dataset = _dataset_from(history)
        tmp = tmp_path_factory.mktemp("trunc")
        path = tmp / "scan.seg"
        write_scan_table(dataset.table, path, scan_dates=dataset.scan_dates)
        blob = path.read_bytes()
        keep = data.draw(
            st.integers(min_value=0, max_value=len(blob) - 1), label="keep"
        )
        truncated = tmp / "truncated.seg"
        truncated.write_bytes(blob[:keep])
        with pytest.raises(SegmentError):
            open_scan_table(truncated)
        with pytest.raises(SegmentError):
            verify_segment(truncated)

    def test_payload_flip_is_a_checksum_error(self, tmp_path):
        """A flip past the header is specifically the checksum subclass."""
        dataset = _dataset_from([(0, 0, 0, 5, 0)])
        path = tmp_path / "scan.seg"
        write_scan_table(dataset.table, path, scan_dates=dataset.scan_dates)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(SegmentChecksumError):
            verify_segment(path)

    def test_wrong_table_is_a_typed_error(self, tmp_path):
        dataset = _dataset_from([(0, 0, 0, 5, 0)])
        path = tmp_path / "scan.seg"
        write_scan_table(dataset.table, path, scan_dates=dataset.scan_dates)
        with pytest.raises(SegmentError):
            open_pdns_table(path)
        with pytest.raises(SegmentError):
            open_ct_table(path)


# -- the chunk contract ----------------------------------------------------------


@pytest.fixture(scope="module")
def chunked(tmp_path_factory):
    """A scan segment whose row columns and domain pool span several
    chunks."""
    path = tmp_path_factory.mktemp("chunked") / "scan.seg"
    write_scan_table(scale_world(6_000, seed=0).scan.table, path)
    return path


def _chunk_flip(path, name: str, chunk: int):
    """A copy of the segment with one byte flipped inside chunk
    ``chunk`` of blob ``name``."""
    segment = Segment.open(path)
    spec = segment.spec(name)
    segment.close()
    assert spec["chunks"] > chunk + 1, spec
    return _flip(path, spec["offset"] + chunk * CHUNK_BYTES + 5)


class TestChunkContract:
    """A read verifies the chunks it covers: a flip in chunk k fails any
    read covering k and no read of another chunk; whole reads and
    ``verify_segment`` fail on it."""

    def test_flipped_column_chunk(self, chunked):
        flipped = _chunk_flip(chunked, "date_ord", 1)
        per_chunk = CHUNK_BYTES // 4
        clean = Segment.open(chunked).array("date_ord")
        corrupt = Segment.open(flipped)
        items = corrupt.items("date_ord")
        with pytest.raises(SegmentChecksumError, match="date_ord"):
            items[per_chunk + 3]
        with pytest.raises(SegmentChecksumError, match="date_ord"):
            items[per_chunk - 2 : per_chunk + 2]
        assert list(items[0:per_chunk]) == list(clean[0:per_chunk])
        assert items[2 * per_chunk + 1] == clean[2 * per_chunk + 1]
        with pytest.raises(SegmentChecksumError, match="date_ord"):
            corrupt.array("date_ord")
        with pytest.raises(SegmentChecksumError):
            verify_segment(flipped)

    def test_flipped_pool_chunk(self, chunked):
        flipped = _chunk_flip(chunked, "domains.dat", 1)
        clean = open_scan_table(chunked)
        corrupt = open_scan_table(flipped)
        offsets = clean.segment.array("domains.off")
        inside = next(i for i in range(len(offsets) - 1) if offsets[i] >= CHUNK_BYTES + 8)
        with pytest.raises(SegmentChecksumError, match="domains.dat"):
            corrupt.domains[inside]
        assert corrupt.domains[0] == clean.domains[0]
        assert corrupt.domains[len(clean.domains) - 1] == clean.domains[len(clean.domains) - 1]
        with pytest.raises(SegmentChecksumError, match="domains.dat"):
            corrupt.segment.blob("domains.dat")
        with pytest.raises(SegmentChecksumError):
            verify_segment(flipped)


def test_pool_lengths_and_a_lookup_read_a_few_chunks(tmp_path, monkeypatch):
    """On a freshly opened 2x10^4-domain table, ``len()`` of every pool
    and one domain lookup read a few chunks, not the 0.6 MB domain pool:
    the population-sized pools' lengths read nothing (a one-chunk pool
    is verified whole on first use), and the lookup bisects through a
    few chunks of the domain pool."""
    path = tmp_path / "scan.seg"
    write_scan_table(scale_world(20_000, seed=0).scan.table, path)
    table = open_scan_table(path)
    read = []
    pread = segment_format._pread

    def metered(fd, size, offset, at):
        read.append(size)
        return pread(fd, size, offset, at)

    monkeypatch.setattr(segment_format, "_pread", metered)
    assert len(table.domains) == len(table.base_sets) == 20_000
    assert not read, read
    for pool in _SCAN_POOLS + ("certs",):
        assert len(getattr(table, pool)) > 0
    assert table.domain_index("active-00007.example.com") == 7
    pool_bytes = sum(
        table.segment.spec(name)["length"] for name in ("domains.off", "domains.dat")
    )
    assert sum(read) <= 16 * CHUNK_BYTES < pool_bytes / 2, (sum(read), len(read))
