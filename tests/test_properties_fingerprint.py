"""Property tests for the byte content digest of the input bundle.

:func:`repro.cache.fingerprint.block_digests` hashes each evidence
table's per-row columns and value pools in blocks.  The properties:

* **one digest per content** — the in-RAM, segment-backed and epoch
  overlay forms of the same evidence digest identically, per table and
  for the whole bundle, with the overlay stacked twice, and a segment's
  header-stored blocks equal the blocks hashed from its mapped columns;
* **every cell counts** — changing any one column cell or pool value
  of the scan, pDNS or CT table changes its digest, and so does a
  revocation an epoch delta adds;
* **extension is exact** — the overlay's extended digest equals the
  full digest, with blocks small enough that full base blocks are
  reused and partial ones re-hashed;
* **the probe stays cheap** — deriving a run key over a freshly opened
  bundle unpickles no CT logs, hydrates no pDNS aggregates and hashes
  no context dataset (``aux.seg`` stores their digests), and the bytes
  of a written bundle do not depend on whether its world was digested.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from datetime import date
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import fingerprint
from repro.cache.fingerprint import (
    block_digests,
    derive_run_key,
    inputs_digest,
    without_digest,
)
from repro.core.pipeline import PipelineConfig, PipelineInputs
from repro.epochs import merge_inputs
from repro.faults import FaultPlan
from repro.scan.table import ScanTable
from repro.segments import (
    Segment,
    load_segment_inputs,
    open_scan_table,
    write_scan_table,
    write_segments,
)
from repro.segments import tables
from repro.segments.overlay import extend_scan_table
from repro.world.scale import make_delta, scale_world
from repro.world.scenarios import small_world
from repro.world.sim import run_study

from tests.helpers import make_cert, scan_dates

#: A block size small enough that the small tables here span several
#: blocks, so extension reuses full blocks and re-hashes partial ones.
SMALL_BLOCK = 3

DATES = scan_dates()
DOMAINS = ("a.com", "c.org", "e.net", "g.io")
CERTS = tuple(make_cert(f"cn{i}.example.org", 800 + i, date(2019, 1, 1)) for i in range(3))

# One scan row, by pool selectors: (domain, date, ip, asn, cert, country,
# ports, extra base domain or None, trusted, sensitive).
_row = st.tuples(
    st.integers(0, len(DOMAINS) - 1),
    st.integers(0, len(DATES) - 1),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, len(CERTS) - 1),
    st.sampled_from(("US", "DE")),
    st.sampled_from(((443,), (80, 443))),
    st.one_of(st.none(), st.integers(0, len(DOMAINS) - 1)),
    st.booleans(),
    st.booleans(),
)
_rows = st.lists(_row, max_size=10)


def _materialize(spec) -> tuple:
    dom, day, ip, asn, cert, country, ports, extra, trusted, sensitive = spec
    domain = DOMAINS[dom]
    bases = (domain,) if extra is None else tuple(sorted({domain, DOMAINS[extra]}))
    return (
        DATES[day].toordinal(), f"10.0.{ip}.{dom}", 64500 + asn, CERTS[cert],
        country, ports, (domain, f"www.{domain}"), bases, trusted, sensitive,
    )


def _build(specs) -> ScanTable:
    builder = ScanTable.build()
    for spec in specs:
        builder.append_row(*_materialize(spec))
    return builder.finish()


def _cold(table) -> dict:
    """The table's blocks hashed afresh, ignoring any memo."""
    table.__dict__.pop("_repro_blocks", None)
    return block_digests(table)


class TestOneDigestPerContent:
    @settings(max_examples=40, deadline=None)
    @given(_rows, _rows, _rows)
    def test_scan_forms_agree(self, tmp_path_factory, base, first, second):
        directory = tmp_path_factory.mktemp("scan")
        with patch.object(fingerprint, "BLOCK_ROWS", SMALL_BLOCK):
            rebuilt = _build(base + first + second)
            expected = block_digests(rebuilt)

            first_rows = [_materialize(s) for s in first]
            second_rows = [_materialize(s) for s in second]
            in_ram = extend_scan_table(
                extend_scan_table(_build(base), first_rows), second_rows
            )
            write_scan_table(_build(base), directory / "base.seg")
            mapped = open_scan_table(directory / "base.seg")
            stacked = extend_scan_table(
                extend_scan_table(mapped, first_rows), second_rows
            )
            write_scan_table(rebuilt, directory / "rebuilt.seg")
            reopened = open_scan_table(directory / "rebuilt.seg")

            assert block_digests(in_ram) == expected
            assert block_digests(stacked) == expected
            assert block_digests(reopened) == expected  # seeded from the header
            for table in (in_ram, stacked, reopened):
                assert _cold(table) == expected  # hashed from its buffers

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 50))
    def test_bundle_forms_agree(self, tmp_path_factory, seed):
        """Whole bundles, all three channels: two stacked epochs merged
        onto an in-RAM base and onto its segment bundle, and the merged
        result written as a bundle of its own."""
        directory = tmp_path_factory.mktemp("bundle")
        with patch.object(fingerprint, "BLOCK_ROWS", 16):
            base = scale_world(48, n_active=16, seed=seed)
            first = make_delta(base, seed=seed, epoch=1)
            second = make_delta(merge_inputs(base, first), seed=seed, epoch=2)
            in_ram = merge_inputs(merge_inputs(base, first), second)
            write_segments(base, directory / "base")
            mapped = load_segment_inputs(directory / "base")
            stacked = merge_inputs(merge_inputs(mapped, first), second)
            write_segments(in_ram, directory / "merged")
            reopened = load_segment_inputs(directory / "merged")

            expected = inputs_digest(in_ram)
            assert inputs_digest(stacked) == expected
            assert inputs_digest(reopened) == expected
            for table in (
                reopened.scan.table, reopened.pdns.table, reopened.crtsh.table,
            ):
                assert table._repro_blocks == _cold(table)


def _changed(value, kind):
    """A different value of the same pool kind."""
    if kind == "str":
        return value + "x"
    if kind == "int":
        return value + 1
    return value + (("x",) if kind == "tuple_str" else (1,))


_WORLD: dict = {}


def _table(channel: str):
    """A private copy of one channel's table from a small scale world."""
    if not _WORLD:
        inputs = scale_world(48, n_active=16, seed=0)
        _WORLD.update(scan=inputs.scan.table, pdns=inputs.pdns.table, ct=inputs.crtsh.table)
    return pickle.loads(pickle.dumps(_WORLD[channel]))


_CHANNELS = ("scan", "pdns", "ct")


class TestEveryCellCounts:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_CHANNELS), st.data())
    def test_changing_a_column_cell_changes_the_digest(self, channel, data):
        table = _table(channel)
        before = _cold(table)
        column = getattr(table, data.draw(st.sampled_from(table.digest_columns)))
        row = data.draw(st.integers(0, len(column) - 1))
        column[row] = (column[row] + 1) % (1 << 8 * column.itemsize)
        assert _cold(table) != before

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_CHANNELS), st.data())
    def test_changing_a_pool_value_changes_the_digest(self, channel, data):
        table = _table(channel)
        before = _cold(table)
        pool_name, kind = data.draw(st.sampled_from(table.digest_pools))
        pool = getattr(table, pool_name)
        entry = data.draw(st.integers(0, len(pool) - 1))
        pool[entry] = _changed(pool[entry], kind)
        assert _cold(table) != before

    def test_a_delta_revocation_changes_the_ct_digest(self):
        base = scale_world(48, n_active=16, seed=0)
        delta = make_delta(base, seed=0, epoch=1)
        cert = base.crtsh.table.certs[0]
        revoked = replace(
            delta, revocations=((cert.fingerprint, cert.not_before, "keyCompromise"),)
        )
        plain, with_revocation = merge_inputs(base, delta), merge_inputs(base, revoked)
        assert block_digests(plain.crtsh.table) == block_digests(with_revocation.crtsh.table)
        assert inputs_digest(plain) != inputs_digest(with_revocation)


def test_a_bundle_without_header_blocks_digests_from_its_columns(tmp_path):
    """A bundle whose headers carry no ``content_blocks`` (here, the
    row-scheme ``block_digests`` of an older writer): nothing seeds the
    memo, and its first probe hashes the mapped columns to the same
    digest."""
    inputs = scale_world(48, n_active=16, seed=0)
    old_meta = {"block_rows": fingerprint.BLOCK_ROWS, "block_digests": ["0" * 32]}
    with patch.object(tables, "_block_meta", lambda table, pools=None: old_meta):
        write_segments(inputs, tmp_path)
    reopened = load_segment_inputs(tmp_path)
    for table in (reopened.scan.table, reopened.pdns.table, reopened.crtsh.table):
        assert "_repro_blocks" not in vars(table)
    assert inputs_digest(reopened) == inputs_digest(inputs)


def test_probe_over_a_fresh_bundle_reads_no_logs_or_aggregates(tmp_path):
    write_segments(scale_world(48, n_active=16, seed=0), tmp_path)
    inputs = load_segment_inputs(tmp_path)
    unpickled = []
    pickle_blob = Segment.pickle

    def recording(segment, name):
        unpickled.append(name)
        return pickle_blob(segment, name)

    with patch.object(Segment, "pickle", recording):
        derive_run_key(inputs, FaultPlan.from_spec(None), PipelineConfig())
    assert "ct_logs" not in unpickled, unpickled
    assert inputs.crtsh.__dict__.get("_logs_real") is None
    assert inputs.pdns._rows is None


def _counting_value_digest(calls: list):
    real = fingerprint.value_digest

    def counted(value):
        calls.append(value)
        return real(value)

    return patch.object(fingerprint, "value_digest", counted)


def test_a_fresh_paper_bundle_probe_hashes_no_context_dataset(paper, tmp_path):
    """``aux.seg`` stores the AS2Org, routing and geo digests, so the
    first probe over a freshly opened bundle hashes none of them and
    still keys like the in-RAM world."""
    inputs = PipelineInputs.from_study(paper)
    write_segments(inputs, tmp_path)
    calls: list = []
    with _counting_value_digest(calls):
        stored = inputs_digest(load_segment_inputs(tmp_path))
    assert calls == []
    in_ram = replace(
        inputs,
        as2org=without_digest(inputs.as2org),
        routing=without_digest(inputs.routing),
        geo=without_digest(inputs.geo),
    )
    with _counting_value_digest(calls):
        assert inputs_digest(in_ram) == stored
    assert len(calls) == 3


def test_aux_segment_bytes_do_not_depend_on_a_prior_probe(tmp_path):
    """The pickled context carries no digest memo: a bundle written
    after its world was digested is byte for byte the one written
    before."""
    written = {}
    for probed in (False, True):
        inputs = PipelineInputs.from_study(run_study(small_world()))
        if probed:
            inputs_digest(inputs)
        directory = tmp_path / f"probed-{probed}"
        write_segments(inputs, directory)
        written[probed] = (directory / "aux.seg").read_bytes()
        context = Segment.open(directory / "aux.seg").pickle("context")
        for name in ("as2org", "routing", "geo"):
            assert fingerprint._DIGEST_MEMO not in vars(context[name]), name
    assert written[False] == written[True]
