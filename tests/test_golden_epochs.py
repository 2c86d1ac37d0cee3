"""Golden epoch replays: the paper study, split at its median scan date
and re-run as base + delta, must reproduce the pinned reports byte for
byte.

This is the acceptance oracle of the epoch engine stated on the
evidence that actually matters — the paper scenario with its hijacks,
revocations, and CT history — rather than synthetic scale worlds.  The
split moves every post-cutoff scan row, pDNS record, and CT entry into
a ``repro-delta/1`` payload; replaying it through :func:`run_epoch`
must be indistinguishable from the monolithic run that produced the
golden files, on every backend and with or without a cache.

Paper splits always add *in-period* scan dates, so the engine declines
deployment-map seeding (``calendar-changed``) — which makes these tests
pin the declined path's identity; the seeded path's identity is pinned
by ``tests/test_epochs.py`` over out-of-period scale deltas.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cache import StageCache
from repro.cli import GOLDEN_FAULT_SEED, GOLDEN_FAULT_SPEC, GOLDEN_SEEDS
from repro.core.pipeline import HijackPipeline, PipelineInputs
from repro.ct.crtsh import CrtShService
from repro.ct.log import CTLog
from repro.epochs import EpochDelta, read_delta, run_epoch, write_delta
from repro.exec import ProcessPoolBackend
from repro.faults import FaultPlan
from repro.io.golden import (
    encode_report,
    golden_faults_filename,
    golden_filename,
)
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.scan.table import ScanTable
from repro.world.scenarios import paper_study

from tests.test_golden_reports import GOLDEN_DIR, START_METHODS, _study


def _golden_text(seed: int) -> str:
    return (GOLDEN_DIR / golden_filename(seed)).read_text()


def _fault_golden_text() -> str:
    return (GOLDEN_DIR / golden_faults_filename(GOLDEN_FAULT_SEED)).read_text()


def _rows_of(table: ScanTable) -> list[tuple]:
    from repro.scan.table import _SENSITIVE, _TRUSTED

    return [
        (
            table.date_ord[r],
            table.ips[table.ip_id[r]],
            table.asns[table.asn_id[r]],
            table.certs[table.cert_id[r]],
            table.countries[table.country_id[r]],
            table.port_sets[table.ports_id[r]],
            table.name_sets[table.names_id[r]],
            table.base_sets[table.bases_id[r]],
            bool(table.flags[r] & _TRUSTED),
            bool(table.flags[r] & _SENSITIVE),
        )
        for r in range(len(table.date_ord))
    ]


def _observation_tuples(record) -> list[tuple]:
    """Observations that re-aggregate to ``record``'s (first, last, count)."""
    obs = [(record.rrname, record.rtype, record.rdata, record.first_seen)]
    obs.extend(
        (record.rrname, record.rtype, record.rdata, record.first_seen)
        for _ in range(record.count - 2)
    )
    if record.count > 1:
        obs.append((record.rrname, record.rtype, record.rdata, record.last_seen))
    return obs


def _split(study) -> tuple[PipelineInputs, EpochDelta]:
    """The study as it stood at its median scan date, plus the rest as
    one epoch delta."""
    inputs = PipelineInputs.from_study(study)
    calendar = inputs.scan.scan_dates
    cutoff = calendar[len(calendar) // 2]
    cutoff_ord = cutoff.toordinal()

    rows = _rows_of(inputs.scan.table)
    builder = ScanTable.build()
    for row in rows:
        if row[0] <= cutoff_ord:
            builder.append_row(*row)
    base_scan = ScanDataset.from_table(
        builder.finish(),
        tuple(d for d in calendar if d <= cutoff),
        known_missing_dates=frozenset(
            d for d in inputs.scan.known_missing_dates if d <= cutoff
        ),
    )

    base_pdns = PassiveDNSDatabase()
    delta_observations: list[tuple] = []
    for record in inputs.pdns.all_records():
        if record.first_seen <= cutoff:
            for rrname, rtype, rdata, day in _observation_tuples(record):
                base_pdns.add_observation(rrname, rtype, rdata, day)
        else:
            delta_observations.extend(_observation_tuples(record))

    base_log = CTLog(study.ct_log.name)
    delta_ct: list[tuple] = []
    for entry in study.ct_log.entries():
        if entry.timestamp <= cutoff:
            base_log.submit(entry.certificate, entry.timestamp)
        else:
            delta_ct.append((entry.certificate, entry.timestamp))
    base_crtsh = CrtShService(
        [base_log],
        study.revocations,
        asof=study.crtsh._asof,
        publication_delay_days=study.crtsh._publication_delay.days,
        publication_horizon=study.crtsh._publication_horizon,
    )

    base = replace(inputs, scan=base_scan, pdns=base_pdns, crtsh=base_crtsh)
    delta = EpochDelta(
        epoch=1,
        label=f"paper-split-{cutoff.isoformat()}",
        scan_rows=tuple(row for row in rows if row[0] > cutoff_ord),
        scan_dates=tuple(d for d in calendar if d > cutoff),
        known_missing=tuple(
            sorted(d for d in inputs.scan.known_missing_dates if d > cutoff)
        ),
        pdns_observations=tuple(delta_observations),
        ct_entries=tuple(delta_ct),
    )
    return base, delta


_SPLITS: dict[int, tuple[PipelineInputs, EpochDelta]] = {}


def _split_cached(seed: int) -> tuple[PipelineInputs, EpochDelta]:
    if seed not in _SPLITS:
        _SPLITS[seed] = _split(_study(seed))
    return _SPLITS[seed]


def test_split_is_a_real_split():
    base, delta = _split_cached(GOLDEN_SEEDS[0])
    original = _study(GOLDEN_SEEDS[0])
    assert delta.scan_rows
    assert delta.scan_dates
    assert len(base.scan.table) + len(delta.scan_rows) == len(
        original.scan.table
    )
    assert len(base.scan.scan_dates) < len(original.scan.scan_dates)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_epoch_replay_matches_golden_serial(seed):
    base, delta = _split_cached(seed)
    report, _metrics, dirty = run_epoch(base, delta)
    # The delta's calendar additions are in-period by construction, so
    # this also pins the declined-seeding path's identity.
    assert dirty.calendar_changed
    assert encode_report(report) == _golden_text(seed)


def test_epoch_replay_survives_the_delta_file(tmp_path):
    """Round-tripping the split through a ``repro-delta/1`` container
    changes nothing: certificates, RRTypes, and dates all travel."""
    seed = GOLDEN_SEEDS[0]
    base, delta = _split_cached(seed)
    path = write_delta(delta, tmp_path / "paper.delta")
    loaded = read_delta(path)
    assert loaded.digest() == delta.digest()
    report, _metrics, _dirty = run_epoch(base, loaded)
    assert encode_report(report) == _golden_text(seed)


# Every pool run is the shard scheduler; the ids name it with the start method.
@pytest.mark.parametrize(
    "start_method", [pytest.param(m, id=f"shard-{m}") for m in START_METHODS]
)
def test_epoch_replay_matches_golden_process_pool(start_method):
    base, delta = _split_cached(GOLDEN_SEEDS[0])
    backend = ProcessPoolBackend(jobs=2, start_method=start_method)
    report, _metrics, _dirty = run_epoch(base, delta, backend=backend)
    assert encode_report(report) == _golden_text(GOLDEN_SEEDS[0])


def test_epoch_replay_with_warm_cache(tmp_path):
    seed = GOLDEN_SEEDS[0]
    base, delta = _split_cached(seed)
    cache = StageCache(tmp_path / "cache")
    HijackPipeline(base).profile(cache=cache)
    report, metrics, _dirty = run_epoch(base, delta, cache=cache)
    assert metrics.epoch["seeded"] is False
    assert metrics.epoch["reuse_disabled"] == "calendar-changed"
    assert encode_report(report) == _golden_text(seed)
    # A second application is satisfied from the merged entry.
    report, metrics, _dirty = run_epoch(base, delta, cache=cache)
    assert metrics.epoch["reuse_disabled"] == "already-cached"
    assert encode_report(report) == _golden_text(seed)


def test_fault_variant_replay_matches_degraded_golden():
    """The degraded pin reproduces through the split as well: fault
    decisions are identity-keyed, so base evidence degrades the same
    way with the delta appended after it."""
    base, delta = _split_cached(GOLDEN_FAULT_SEED)
    plan = FaultPlan.from_spec(GOLDEN_FAULT_SPEC, seed=GOLDEN_FAULT_SEED)
    report, _metrics, _dirty = run_epoch(base, delta, faults=plan)
    assert encode_report(report) == _fault_golden_text()
