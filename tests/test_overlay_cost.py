"""Structural cost tests: an epoch's scan overlay and its deployment
seeding do O(delta) work.

Timing cannot show O(delta) on small worlds, so this counts work
instead.  Two segment bundles of the scale world, 2,000 and 20,000
domains, take the same :func:`make_delta`; a second delta then stacks
on the first merge.  Inside :func:`extend_scan_table` the test counts

* base pool item decodes — reads and iteration of the lazy
  ``StrPool`` / ``TupleStrPool`` / ``TupleIntPool`` views — and
* ``ScanTable.record`` calls (materialized row objects).

The content-digest extension is metered with the rest: it hashes the
trailing partial blocks from buffers and decodes nothing.  Every delta
value may bisect its pool, so decodes are bounded by ``c * delta values
* ceil(log2 pool)``, and a tenfold population must not grow the count
the way an O(dataset) walk would.  A delta that leaves the scan and CT
channels empty must touch neither: the merge hands back the base table
and service, reads no scan blob and unpickles no CT log.  The pDNS
merge is not covered.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.cache import StageCache
from repro.core.pipeline import HijackPipeline
from repro.epochs import engine, merge_inputs
from repro.exec import SerialBackend
from repro.scan.table import ScanTable
from repro.segments import (
    Segment,
    load_segment_inputs,
    pools,
    segment_paths,
    write_segments,
)
from repro.segments import format as segment_format
from repro.world.scale import make_delta, scale_world

SIZES = (2_000, 20_000)
#: Decodes allowed per delta value and bisection step.
C = 2
#: The interned fields of a scan row (the others are plain columns).
INTERNED_FIELDS = ("ip", "asn", "certificate", "country", "ports", "names", "base_domains")


class _Meter:
    """Counts pool decodes and record calls while ``engine.<target>``
    runs; decodes of the ``watched`` pool are also counted apart."""

    def __init__(self, monkeypatch, target: str = "extend_scan_table") -> None:
        self.on = False
        self.decodes = 0
        self.records = 0
        self.watched = None
        self.watched_decodes = 0
        for cls in (pools.StrPool, pools.TupleStrPool, pools.TupleIntPool):
            monkeypatch.setattr(cls, "__getitem__", self._counted(cls.__getitem__))
        monkeypatch.setattr(pools.StrPool, "__iter__", self._iterated(pools.StrPool.__iter__))
        record = ScanTable.record

        def counted_record(table, row):
            self.records += self.on
            return record(table, row)

        monkeypatch.setattr(ScanTable, "record", counted_record)
        function = getattr(engine, target)

        def metered(*args, **kwargs):
            self.on = True
            try:
                return function(*args, **kwargs)
            finally:
                self.on = False

        monkeypatch.setattr(engine, target, metered)

    def _count(self, pool) -> None:
        self.decodes += self.on
        self.watched_decodes += self.on and pool is self.watched

    def _counted(self, getitem):
        def wrapper(pool, index):
            self._count(pool)
            return getitem(pool, index)

        return wrapper

    def _iterated(self, iterate):
        def wrapper(pool):
            for value in iterate(pool):
                self._count(pool)
                yield value

        return wrapper

    def merge(self, inputs, delta):
        self.decodes = self.records = 0
        merged = merge_inputs(inputs, delta)
        return merged, self.decodes, self.records


def _delta_values(delta) -> int:
    """Pooled values the delta's scan rows carry: the interned fields
    plus each registered domain."""
    return sum(len(INTERNED_FIELDS) + len(row[7]) for row in delta.scan_rows)


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    paths = {}
    for n in SIZES:
        directory = tmp_path_factory.mktemp(f"scale-{n}")
        write_segments(scale_world(n, seed=0), directory)
        paths[n] = directory
    return paths


def test_scan_overlay_cost_is_o_delta(bundles, monkeypatch):
    meter = _Meter(monkeypatch)
    counts = {}
    for n, directory in bundles.items():
        inputs = load_segment_inputs(directory)
        pool = len(inputs.scan.table.domains)
        first = make_delta(inputs, seed=0, epoch=1)
        merged, decodes, records = meter.merge(inputs, first)
        second = make_delta(merged, seed=0, epoch=2)
        _, stacked_decodes, stacked_records = meter.merge(merged, second)

        assert records == stacked_records == 0
        steps = math.ceil(math.log2(pool))
        assert decodes <= C * _delta_values(first) * steps, (n, decodes)
        assert stacked_decodes <= C * _delta_values(second) * steps, (n, stacked_decodes)
        counts[n] = (decodes, stacked_decodes)

    small, large = (counts[n] for n in SIZES)
    # Ten times the population may add bisection steps, never a walk.
    for few, many in zip(small, large):
        assert many < 2 * few, counts


def test_seed_deployment_cost_is_o_delta(bundles, monkeypatch, tmp_path):
    """Seeding an epoch from the base run's stage entry decodes domain
    names for the dirty set and at most once per entry, never a walk
    over the population, even when the delta adds a domain."""
    meter = _Meter(monkeypatch, target="_seed_stages")
    for n, directory in bundles.items():
        cache = StageCache(tmp_path / f"cache-{n}")
        _, base_metrics = HijackPipeline(load_segment_inputs(directory)).profile(
            SerialBackend(), cache=cache
        )
        entry_size = next(s.n_out for s in base_metrics.stages if s.name == "deployment_maps")
        inputs = load_segment_inputs(directory)
        delta = make_delta(inputs, seed=0, epoch=1)
        row = delta.scan_rows[0]
        added = "mm-added.example.net"  # sorts inside the population
        delta = replace(delta, scan_rows=(*delta.scan_rows, (*row[:6], (added,), (added,), *row[8:])))
        meter.watched = inputs.scan.table.domains

        _, metrics, dirty = engine.run_epoch(inputs, delta, backend=SerialBackend(), cache=cache)

        epoch = metrics.epoch
        assert epoch["seeded"] and epoch["domains"] == n + 1, epoch
        assert epoch["domains_dirty"] == len(dirty.scan_direct), epoch
        assert epoch["domains_reused"] == n + 1 - epoch["domains_dirty"], epoch
        steps = math.ceil(math.log2(n))
        bound = C * len(dirty.scan_direct) * steps + entry_size
        assert meter.watched_decodes <= bound, (n, meter.watched_decodes, bound)


def test_pdns_only_delta_reuses_scan_and_ct(bundles, monkeypatch):
    directory = bundles[SIZES[0]]
    delta = replace(
        make_delta(load_segment_inputs(directory), seed=0, epoch=1),
        scan_rows=(), ct_entries=(), revocations=(),
    )
    assert delta.pdns_observations
    inputs = load_segment_inputs(directory)
    read, unpickled = set(), []
    pread, pickle_blob = segment_format._pread, Segment.pickle

    def metered(fd, size, offset, path):
        read.add(path)
        return pread(fd, size, offset, path)

    def recording(segment, name):
        unpickled.append(name)
        return pickle_blob(segment, name)

    monkeypatch.setattr(segment_format, "_pread", metered)
    monkeypatch.setattr(Segment, "pickle", recording)
    merged = merge_inputs(inputs, delta)

    assert merged.scan.table is inputs.scan.table
    assert merged.crtsh is inputs.crtsh
    assert segment_paths(directory)["scan"] not in read, read
    assert "ct_logs" not in unpickled, unpickled
    assert merged.pdns is not inputs.pdns
