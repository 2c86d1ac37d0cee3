"""Property tests for the epoch layer: overlay differential and
dirty-set soundness.

Two invariants carry the incremental engine's byte-identity guarantee:

* **Overlay differential** — for arbitrary base and delta row streams,
  :func:`extend_scan_table` produces a table whose pools, columns, CSR
  index, pickled wire form, and content-digest blocks are identical to
  a table rebuilt cold from the concatenated rows.  This is what makes
  pool-id prefix stability a theorem of the implementation rather than
  a hope.  It holds over an in-RAM base and over a base written to a
  segment and reopened (whose stored pool orders the overlay bisects),
  extended once and stacked twice.
* **Dirty-set soundness** — for arbitrary deltas over a scale world,
  every domain whose deployment encoding changes between the base and
  the merged bundle is in the engine's dirty set, and every domain
  whose report findings change is in the test-only reference rings
  (:func:`tests.reference.reference_dirty_rings`).  Both may
  over-approximate, never under-approximate.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict, replace
from datetime import date, timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import block_digests
from repro.core.deployment import encode_domain_maps
from repro.core.pipeline import HijackPipeline, PipelineConfig
from repro.dns.records import RRType
from repro.epochs import EpochDelta, compute_dirty_set, merge_inputs
from repro.scan.table import _INTERNED, ScanTable
from repro.segments import Segment, open_scan_table, write_scan_table
from repro.segments.overlay import extend_scan_table
from repro.tls.certificate import Certificate
from repro.world.scale import SCALE_END, scale_world

from tests.helpers import make_cert, scan_dates
from tests.reference import reference_dirty_rings

DATES = scan_dates()
DOMAINS = ("alpha.com", "beta.org", "gamma.net", "delta.io")
CERTS = tuple(
    make_cert(f"cn{i}.example.org", 700 + i, date(2018, 12, 1)) for i in range(4)
)

# One scan row, by pool selectors: (domain, date index, ip, asn, cert,
# extra base domain or None, trusted, sensitive).
_row_spec = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=len(DATES) - 1),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    st.booleans(),
    st.booleans(),
)


def _materialize(spec) -> tuple:
    dom_sel, date_idx, ip_sel, asn_sel, cert_sel, extra, trusted, sensitive = spec
    domain = DOMAINS[dom_sel]
    bases = (domain,) if extra is None else tuple(sorted({domain, DOMAINS[extra]}))
    return (
        DATES[date_idx].toordinal(),
        f"10.{ip_sel}.{asn_sel}.{dom_sel}",
        1000 + asn_sel,
        CERTS[cert_sel],
        "US" if asn_sel % 2 == 0 else "DE",
        (443,),
        (domain, f"www.{domain}"),
        bases,
        trusted,
        sensitive,
    )


def _build(rows) -> ScanTable:
    builder = ScanTable.build()
    for row in rows:
        builder.append_row(*row)
    return builder.finish()


def _wire(table: ScanTable) -> dict:
    """The pickled wire form, minus memoized ``_repro*`` annotations."""
    return {
        key: value
        for key, value in table.__getstate__().items()
        if not key.startswith("_repro")
    }


class TestOverlayDifferential:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(_row_spec, min_size=0, max_size=20),
        st.lists(_row_spec, min_size=0, max_size=12),
    )
    def test_overlay_equals_rebuild(self, base_specs, delta_specs):
        base_rows = [_materialize(s) for s in base_specs]
        delta_rows = [_materialize(s) for s in delta_specs]
        base = _build(base_rows)
        derived = extend_scan_table(base, delta_rows)
        rebuilt = _build(base_rows + delta_rows)
        assert derived.domains == rebuilt.domains
        assert _wire(derived) == _wire(rebuilt)
        # The overlay's extended content digests must equal digests
        # computed cold — cache fingerprints hang off exactly this.
        assert block_digests(derived) == block_digests(rebuilt)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_row_spec, min_size=0, max_size=20))
    def test_base_is_untouched(self, base_specs):
        base_rows = [_materialize(s) for s in base_specs]
        base = _build(base_rows)
        before = _wire(base)
        extend_scan_table(base, [_materialize((0, 0, 0, 0, 0, None, True, False))])
        assert _wire(base) == before


# -- overlay over a segment-backed base -----------------------------------------

# Domains spaced out in sort order, so a delta's new names can land
# before, between and after a base's.
SEG_DOMAINS = ("a.com", "c.org", "e.net", "g.io", "i.com", "k.org", "m.net")
SEG_PORTS = ((443,), (443, 8443), (80, 443))
SEG_COUNTRIES = ("US", "DE", "FR")

# One scan row, with a selector for every pooled field: (domain, date
# index, ip, asn, cert, country, ports, with www name, extra base
# domain or None, trusted, sensitive).
_seg_row = st.tuples(
    st.integers(min_value=0, max_value=len(SEG_DOMAINS) - 1),
    st.integers(min_value=0, max_value=len(DATES) - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=len(SEG_DOMAINS) - 1)),
    st.booleans(),
    st.booleans(),
)
_seg_rows = st.lists(_seg_row, min_size=0, max_size=12)


def _seg_materialize(spec) -> tuple:
    (dom, date_idx, ip, asn, cert, country, ports, www, extra, trusted, sensitive) = spec
    domain = SEG_DOMAINS[dom]
    bases = (domain,) if extra is None else tuple(sorted({domain, SEG_DOMAINS[extra]}))
    return (
        DATES[date_idx].toordinal(),
        f"10.{ip}.{asn}.{dom}",
        2000 + asn,
        CERTS[cert],
        SEG_COUNTRIES[country],
        SEG_PORTS[ports],
        (domain, f"www.{domain}") if www else (domain,),
        bases,
        trusted,
        sensitive,
    )


def _assert_equals_rebuild(derived: ScanTable, rebuilt: ScanTable) -> None:
    assert tuple(derived.domains) == rebuilt.domains
    assert [derived.domains[i] for i in range(len(rebuilt.domains))] == list(rebuilt.domains)
    for domain in SEG_DOMAINS:
        assert derived.domain_index(domain) == rebuilt.domain_index(domain)
    for pool, _ in _INTERNED:
        index = derived.pool_index(pool)
        for ident, value in enumerate(getattr(rebuilt, pool)):
            assert index.get(value) == ident
    assert _wire(derived) == _wire(rebuilt)
    assert block_digests(derived) == block_digests(rebuilt)
    assert _wire(pickle.loads(pickle.dumps(derived))) == _wire(rebuilt)


# Base rows all at selector 0 and the middle domains; delta rows at
# the last selector of every pool, with new domains sorting before,
# between and after the base's, then between names the first inserted.
_BASE_EXAMPLE = [(1, 0, 0, 0, 0, 0, 0, False, None, True, False),
                 (5, 1, 0, 0, 0, 0, 0, False, None, True, False)]
_DELTA_EXAMPLE = [(0, 2, 3, 3, 3, 2, 2, True, None, False, True),
                  (3, 2, 3, 3, 3, 2, 2, True, 6, False, True)]
_LATER_EXAMPLE = [(2, 3, 2, 1, 2, 1, 1, True, None, True, True),
                  (4, 0, 1, 2, 1, 2, 1, False, 1, False, False)]


class TestOverlayOverSegment:
    @settings(max_examples=40, deadline=None)
    @given(_seg_rows, _seg_rows, _seg_rows)
    @example(_BASE_EXAMPLE, _DELTA_EXAMPLE, _DELTA_EXAMPLE)
    @example(_BASE_EXAMPLE, _DELTA_EXAMPLE, _LATER_EXAMPLE)
    @example([], _DELTA_EXAMPLE, [])
    def test_overlay_over_segment_equals_rebuild(
        self, tmp_path_factory, base_specs, first_specs, second_specs
    ):
        base_rows = [_seg_materialize(s) for s in base_specs]
        first_rows = [_seg_materialize(s) for s in first_specs]
        second_rows = [_seg_materialize(s) for s in second_specs]
        directory = tmp_path_factory.mktemp("overlay")
        write_scan_table(_build(base_rows), directory / "base.seg")
        base = open_scan_table(directory / "base.seg")

        once = extend_scan_table(base, first_rows)
        _assert_equals_rebuild(once, _build(base_rows + first_rows))
        twice = extend_scan_table(once, second_rows)
        rebuilt = _build(base_rows + first_rows + second_rows)
        _assert_equals_rebuild(twice, rebuilt)

        # A derived table re-writes to the blobs of its rebuild, byte
        # for byte: every pool, certificates included, has one encoding.
        write_scan_table(twice, directory / "derived.seg")
        write_scan_table(rebuilt, directory / "rebuilt.seg")
        derived_seg = Segment.open(directory / "derived.seg")
        rebuilt_seg = Segment.open(directory / "rebuilt.seg")
        assert derived_seg.meta == rebuilt_seg.meta
        assert list(derived_seg.names()) == list(rebuilt_seg.names())
        for name in rebuilt_seg.names():
            assert derived_seg.blob(name) == rebuilt_seg.blob(name), name
        reopened = open_scan_table(directory / "derived.seg")
        assert tuple(reopened.domains) == rebuilt.domains
        for pool, _ in _INTERNED:
            assert list(getattr(reopened, pool)) == getattr(rebuilt, pool)


# -- dirty-set soundness ------------------------------------------------------

_N_ACTIVE = 16
_WORLD = {}


def _world():
    if not _WORLD:
        _WORLD["inputs"] = scale_world(48, n_active=_N_ACTIVE, seed=0)
        report, _ = HijackPipeline(_WORLD["inputs"]).profile()
        _WORLD["findings"] = _by_domain(report)
    return _WORLD["inputs"], _WORLD["findings"]


def _by_domain(report) -> dict:
    grouped: dict = {}
    for finding in report.findings:
        grouped.setdefault(finding.domain, []).append(asdict(finding))
    return grouped


def _delta_cert(i: int, domain: str) -> Certificate:
    cn = f"prop-delta-{i:03d}.example.org"
    return Certificate(
        serial=30_000 + i,
        common_name=cn,
        sans=(cn, domain),
        issuer="Delta CA",
        not_before=date(2019, 1, 1),
        not_after=date(2020, 12, 31),
        crtsh_id=300_000_000 + i,
    )


# A delta spec: churned active indices, pDNS-only targets, CT-only
# targets, and whether the epoch adds an in-period scan date.
_delta_spec = st.tuples(
    st.lists(
        st.integers(min_value=0, max_value=_N_ACTIVE - 1),
        min_size=0, max_size=4, unique=True,
    ),
    st.lists(
        st.integers(min_value=0, max_value=_N_ACTIVE - 1),
        min_size=0, max_size=2, unique=True,
    ),
    st.lists(
        st.integers(min_value=0, max_value=_N_ACTIVE - 1),
        min_size=0, max_size=2, unique=True,
    ),
    st.booleans(),
)


def _make_delta(inputs, spec) -> EpochDelta:
    churned, pdns_only, ct_only, in_period = spec
    last_active = max(d for d in inputs.scan.scan_dates if d <= SCALE_END)
    new_day = date(2019, 2, 6) if in_period else date(2020, 1, 7)
    rows = []
    pdns = []
    ct = []
    for k, i in enumerate(sorted(churned)):
        domain = f"active-{i:05d}.example.com"
        cert = _delta_cert(i, domain)
        rows.append(
            (
                last_active.toordinal(), f"203.9.0.{i}", 64500 + (i + 1) % 8,
                cert, "US", (443,), (domain, f"www.{domain}"), (domain,),
                True, False,
            )
        )
        pdns.append((domain, RRType.A, f"203.9.0.{i}", last_active))
    for i in sorted(pdns_only):
        domain = f"active-{i:05d}.example.com"
        pdns.append(
            (domain, RRType.NS, "ns9.prop-dns.example.org", last_active)
        )
    for i in sorted(ct_only):
        domain = f"active-{i:05d}.example.com"
        ct.append((_delta_cert(100 + i, domain), date(2019, 12, 1)))
    return EpochDelta(
        epoch=1,
        scan_rows=tuple(rows),
        scan_dates=(new_day,) if rows or in_period else (),
        pdns_observations=tuple(pdns),
        ct_entries=tuple(ct),
    )


class TestDirtySetSoundness:
    @settings(max_examples=25, deadline=None)
    @given(_delta_spec)
    def test_changed_domains_are_dirty(self, spec):
        inputs, base_findings = _world()
        delta = _make_delta(inputs, spec)
        dirty = compute_dirty_set(inputs, delta)
        merged = merge_inputs(inputs, delta)

        # Ring-1 soundness: a changed deployment encoding implies
        # membership in scan_direct (the ring that gates reuse) unless
        # the calendar changed, in which case the engine re-encodes
        # every domain and no reuse question arises.
        if not dirty.calendar_changed:
            config = PipelineConfig()
            for domain in inputs.scan.domains():
                before = encode_domain_maps(
                    inputs.scan, domain, inputs.periods, config.max_gap_scans
                )
                after = encode_domain_maps(
                    merged.scan, domain, merged.periods, config.max_gap_scans
                )
                if before != after:
                    assert domain in dirty.scan_direct

        # Report-level soundness: every domain whose findings change
        # between the base and merged runs is in the reference rings.
        rings = reference_dirty_rings(inputs, delta)
        assert rings.scan_direct == dirty.scan_direct
        report, _ = HijackPipeline(merged).profile()
        merged_findings = _by_domain(report)
        for domain in set(base_findings) | set(merged_findings):
            if base_findings.get(domain) != merged_findings.get(domain):
                assert domain in rings.all_dirty
