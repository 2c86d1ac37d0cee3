"""Structural cost test: an epoch apply reads O(delta) segment bytes.

Two scale-world bundles ten times apart, 2x10^4 and 2x10^5 domains,
each bank a cold serial run, then load and apply :func:`make_delta`
epoch 1 through :func:`run_epoch` (serial, seeded from the banked run).
Every byte either run reads off a segment passes through
``format._pread``; the test holds both sizes under one constant bound
that an apply copying or verifying the base's columns exceeds at both
(the 2x10^4 bundle is 3.7 MB, the 2x10^5 one 34 MB).  Each base holds
one transient deployment with a sensitive name in a domain the delta
does not touch, so the epoch's funnel shortlists it again and reads
rows of the merged table: that domain's CSR run, the ids of its rows
and their records, all through range reads.

What the bound covers: the segment headers; the chunks a delta value's
bisection meets in each pool, which grow with log n; the CSR runs of
the touched and the shortlisted domains and the chunks holding their
rows; the trailing partial digest block (fewer than ``BLOCK_ROWS`` rows
and pool entries) that the content digest re-hashes; and the pickled
pDNS and CT pools and CT logs.  The pDNS and CT merges still walk their
base tables, but on scale worlds those tables hold the 200 active
domains whatever the population, so they do not grow with it.
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.cache import StageCache
from repro.core.pipeline import HijackPipeline
from repro.epochs import EpochDelta, engine
from repro.exec import SerialBackend
from repro.segments import load_segment_inputs, segment_paths, write_segments
from repro.segments import format as segment_format
from repro.tls.certificate import Certificate
from repro.world.scale import make_delta, scale_world

SIZES = (20_000, 200_000)
#: Segment bytes load plus epoch may read, at any population.  About
#: 1.01 MB are read at 2x10^4 domains and 1.33 MB at 2x10^5.
BOUND = 3 * 1024 * 1024 // 2
#: The domain holding the base's transient: its rows lie in other
#: chunks than those of the domains ``make_delta`` epoch 1 touches.
TRANSIENT = "active-00180.example.com"


def _with_transient(world):
    """``world`` plus two mid-period rows of :data:`TRANSIENT` on a new
    IP, AS and country, under a certificate for a sensitive name: a
    transient the shortlist keeps."""
    name = f"mail.{TRANSIENT}"
    cert = Certificate(
        serial=99_001,
        common_name=name,
        sans=(name,),
        issuer="Delta CA",
        not_before=date(2019, 1, 1),
        not_after=date(2020, 12, 31),
        crtsh_id=299_000_001,
    )
    days = [d for d in world.scan.scan_dates if date(2019, 3, 1) <= d < date(2019, 3, 15)]
    rows = tuple(
        (day.toordinal(), "192.0.2.77", 65099, cert, "RU", (443,), (name,), (TRANSIENT,), True, True)
        for day in days
    )
    return engine.merge_inputs(world, EpochDelta(epoch=0, scan_rows=rows))


@pytest.fixture(scope="module")
def banked(tmp_path_factory):
    """Per size: a bundle directory and a cache holding its cold run."""
    out = {}
    for n in SIZES:
        directory = tmp_path_factory.mktemp(f"scale-{n}")
        write_segments(_with_transient(scale_world(n, seed=0)), directory)
        cache = StageCache(tmp_path_factory.mktemp(f"cache-{n}"))
        HijackPipeline(load_segment_inputs(directory)).profile(SerialBackend(), cache=cache)
        out[n] = directory, cache
    return out


def test_epoch_apply_reads_o_delta_bytes(banked, monkeypatch):
    state = {"on": False, "bytes": 0}
    pread = segment_format._pread

    def metered(fd, size, offset, path):
        state["bytes"] += state["on"] and size
        return pread(fd, size, offset, path)

    monkeypatch.setattr(segment_format, "_pread", metered)
    counts = {}
    for n, (directory, cache) in banked.items():
        state.update(on=True, bytes=0)
        inputs = load_segment_inputs(directory)
        delta = make_delta(inputs, seed=0, epoch=1)
        report, metrics, dirty = engine.run_epoch(
            inputs, delta, backend=SerialBackend(), cache=cache
        )
        state["on"] = False
        assert metrics.epoch["seeded"], metrics.epoch
        assert metrics.epoch["domains_dirty"] == len(dirty.scan_direct), metrics.epoch
        assert TRANSIENT not in dirty.scan_direct
        assert [entry.domain for entry in report.shortlist] == [TRANSIENT]
        assert {r.country for r in report.shortlist[0].transient_records} == {"RU"}
        counts[n] = state["bytes"]
    size = sum(p.stat().st_size for p in segment_paths(banked[SIZES[0]][0]).values())
    assert size > 2 * BOUND
    assert all(count <= BOUND for count in counts.values()), (counts, BOUND)


def test_root_record_memo_holds_only_built_records(banked):
    """The seeded apply's funnel builds the shortlisted transient's
    records through the overlay, and the root table's memo holds exactly
    those, not a slot per row.  (Epoch 2: epoch 1's merged run may be
    banked already.)"""
    directory, cache = banked[SIZES[0]]
    inputs = load_segment_inputs(directory)
    root = inputs.scan.table
    delta = make_delta(inputs, seed=0, epoch=2)
    report, metrics, _ = engine.run_epoch(inputs, delta, backend=SerialBackend(), cache=cache)
    assert metrics.epoch["seeded"], metrics.epoch
    (entry,) = report.shortlist
    assert entry.domain == TRANSIENT
    memo = root._rec_cache
    assert isinstance(memo, dict)
    assert sorted(memo) == sorted(entry.transient_rows)
    assert [memo[row] for row in entry.transient_rows] == entry.transient_records
    assert len(memo) < len(root)
