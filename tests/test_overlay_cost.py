"""Structural cost test: an epoch's scan overlay does O(delta) work.

Timing cannot show O(delta) on small worlds, so this counts work
instead.  Two segment bundles of the scale world, 2,000 and 20,000
domains, take the same :func:`make_delta`; a second delta then stacks
on the first merge.  Inside :func:`extend_scan_table` the test counts

* base pool item decodes — reads and iteration of the lazy
  ``StrPool`` / ``TupleStrPool`` / ``TupleIntPool`` views — and
* ``ScanTable.record`` calls (materialized row objects).

The unchanged re-digest of the base's trailing partial block
(``extended_block_digests``) is excluded: it re-walks at most one
digest block whatever the population.  Every delta value may bisect
its pool, so decodes are bounded by ``c * delta values * ceil(log2
pool)``, and a tenfold population must not grow the count the way an
O(dataset) walk would.  The pDNS and CT merges are not covered.
"""

from __future__ import annotations

import math

import pytest

from repro.cache import fingerprint
from repro.epochs import engine, merge_inputs
from repro.scan.table import ScanTable
from repro.segments import load_segment_inputs, pools, write_segments
from repro.world.scale import make_delta, scale_world

SIZES = (2_000, 20_000)
#: Decodes allowed per delta value and bisection step.
C = 2
#: The interned fields of a scan row (the others are plain columns).
INTERNED_FIELDS = ("ip", "asn", "certificate", "country", "ports", "names", "base_domains")


class _Meter:
    """Counts pool decodes and record calls while switched on."""

    def __init__(self, monkeypatch) -> None:
        self.on = False
        self.decodes = 0
        self.records = 0
        for cls in (pools.StrPool, pools.TupleStrPool, pools.TupleIntPool):
            monkeypatch.setattr(cls, "__getitem__", self._counted(cls.__getitem__))
        monkeypatch.setattr(pools.StrPool, "__iter__", self._iterated(pools.StrPool.__iter__))
        record = ScanTable.record

        def counted_record(table, row):
            self.records += self.on
            return record(table, row)

        monkeypatch.setattr(ScanTable, "record", counted_record)
        extend = engine.extend_scan_table

        def metered_extend(base, rows):
            self.on = True
            try:
                return extend(base, rows)
            finally:
                self.on = False

        monkeypatch.setattr(engine, "extend_scan_table", metered_extend)
        redigest = fingerprint.extended_block_digests

        def unmetered_redigest(*args, **kwargs):
            on, self.on = self.on, False
            try:
                return redigest(*args, **kwargs)
            finally:
                self.on = on

        monkeypatch.setattr(fingerprint, "extended_block_digests", unmetered_redigest)

    def _counted(self, getitem):
        def wrapper(pool, index):
            self.decodes += self.on
            return getitem(pool, index)

        return wrapper

    def _iterated(self, iterate):
        def wrapper(pool):
            for value in iterate(pool):
                self.decodes += self.on
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
