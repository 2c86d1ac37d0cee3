"""The epoch layer: delta files, the dirty set, and the incremental
engine.

The non-negotiable oracle throughout is byte-identity: every
``run_epoch`` variant — no cache, cold cache, seeded warm cache,
declined seeding, process backends, segment-backed bundles — must
produce a report whose encoded form equals a cold run over the merged
dataset.  Reuse is an optimization of *work*, never of *answer*.
"""

from __future__ import annotations

import json
from dataclasses import replace
from datetime import date

import pytest

from repro.cache import StageCache
from repro.cache.fingerprint import derive_run_key, stage_fingerprint
from repro.cache.resume import ResumeManifest
from repro.core.deployment import encode_domain_maps
from repro.core.pipeline import (
    HijackPipeline,
    PipelineConfig,
    build_stages,
)
from repro.dns.records import RRType
from repro.epochs import (
    DELTA_SCHEMA,
    EpochDelta,
    compute_dirty_set,
    merge_inputs,
    read_delta,
    run_epoch,
    write_delta,
)
from repro.exec import ProcessPoolBackend, fingerprint_chain
from repro.exec.metrics import StageStats
from repro.faults import DataQuality, FaultPlan, apply_faults
from repro.io.golden import encode_report
from repro.net.names import registered_domain
from repro.scan.dataset import ScanDataset
from repro.scan.table import ScanTable
from repro.segments.format import Segment, SegmentError, SegmentWriter
from repro.world.scale import churn_count, make_delta, scale_world

from tests.reference import reference_dirty_rings

# One small world, built once: every test below reads it, none mutates.
_WORLDS: dict = {}


def _world(n_domains: int = 160, n_active: int = 32, seed: int = 0):
    key = (n_domains, n_active, seed)
    if key not in _WORLDS:
        _WORLDS[key] = scale_world(n_domains, n_active=n_active, seed=seed)
    return _WORLDS[key]


def _delta(world=None, **kwargs) -> EpochDelta:
    kwargs.setdefault("fraction", 0.1)
    return make_delta(world if world is not None else _world(), **kwargs)


_COLD: dict = {}


def _cold_text(inputs, delta, faults=None) -> str:
    """The oracle: a cold full run over the overlay-merged bundle."""
    key = (id(inputs), delta.digest(), faults)
    if key not in _COLD:
        merged = merge_inputs(inputs, delta)
        report, _ = HijackPipeline(merged, faults=faults).profile()
        _COLD[key] = encode_report(report)
    return _COLD[key]


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


class TestDeltaFile:
    def test_roundtrip(self, tmp_path):
        delta = replace(
            _delta(),
            known_missing=(date(2020, 2, 4),),
            revocations=(("ab" * 32, date(2019, 7, 1), "keyCompromise"),),
        )
        path = write_delta(delta, tmp_path / "e1.delta")
        loaded = read_delta(path)
        assert loaded.epoch == delta.epoch
        assert loaded.label == delta.label
        assert loaded.scan_rows == delta.scan_rows
        assert loaded.scan_dates == tuple(sorted(delta.scan_dates))
        assert loaded.known_missing == delta.known_missing
        assert loaded.pdns_observations == delta.pdns_observations
        assert loaded.ct_entries == delta.ct_entries
        assert loaded.revocations == tuple(sorted(delta.revocations))
        assert loaded.digest() == delta.digest()

    def test_counts_travel_nested_in_meta(self, tmp_path):
        # Regression: counts once splatted into the header and clobbered
        # the scan_dates ordinal list with its integer count.
        delta = _delta()
        path = write_delta(delta, tmp_path / "e1.delta")
        meta = Segment.open(path).meta
        assert meta["counts"] == delta.counts()
        assert meta["scan_dates"] == [d.toordinal() for d in delta.scan_dates]

    def test_digest_is_deterministic_and_epoch_sensitive(self):
        assert _delta().digest() == _delta().digest()
        assert _delta().digest() != _delta(epoch=2).digest()
        assert _delta().digest() != _delta(seed=5).digest()

    def test_rejects_wrong_table(self, tmp_path):
        path = SegmentWriter("scan", meta={}).write(tmp_path / "bad.delta")
        with pytest.raises(SegmentError, match="delta container"):
            read_delta(path)

    def test_rejects_wrong_schema(self, tmp_path):
        path = SegmentWriter(
            "delta", meta={"schema": "repro-delta/999", "epoch": 1}
        ).write(tmp_path / "bad.delta")
        with pytest.raises(SegmentError, match="unsupported delta schema"):
            read_delta(path)


class TestMakeDelta:
    def test_deterministic(self):
        a, b = _delta(), _delta()
        assert a.digest() == b.digest()
        assert a.scan_rows == b.scan_rows

    def test_fraction_scales_churn(self):
        small = _delta(fraction=0.05)
        large = _delta(fraction=0.5)
        assert len(large.scan_rows) > len(small.scan_rows)

    def test_churn_count_picks_k_of_n(self):
        # fraction=k/n_active picks exactly k, though the float product
        # can land just below k (3 / 10_000 * 10_000 < 3).
        for n in (3, 7, 10, 32, 49, 200, 10_000):
            assert [churn_count(n, k / n) for k in range(1, n + 1)] == list(range(1, n + 1))
        assert churn_count(32, 0.001) == 1

    @pytest.mark.parametrize(
        ("n_domains", "n_active", "counts"),
        [
            # A default scale world's 200 actives: the benchmark's delta.
            (200, 200, {0.01: 2, 0.05: 10, 0.1: 20, 0.5: 100}),
            # This module's world.
            (160, 32, {0.05: 1, 0.1: 3, 0.5: 16}),
        ],
    )
    def test_delta_churns_the_counted_domains(self, n_domains, n_active, counts):
        world = _world(n_domains, n_active)
        for fraction, count in counts.items():
            delta = make_delta(world, fraction=fraction)
            assert len({base for row in delta.scan_rows for base in row[7]}) == count

    def test_rejects_non_scale_world(self):
        background_only = scale_world(8, n_active=0)
        with pytest.raises(ValueError, match="not a scale world"):
            make_delta(background_only)


class TestDirtySet:
    def test_scan_direct_is_exactly_the_churned_domains(self):
        delta = _delta()
        dirty = compute_dirty_set(_world(), delta)
        churned = {base for row in delta.scan_rows for base in row[7]}
        assert dirty.scan_direct == frozenset(churned)
        assert dirty.scan_direct == reference_dirty_rings(_world(), delta).scan_direct

    def test_out_of_period_calendar_addition_is_clean(self):
        dirty = compute_dirty_set(_world(), _delta())
        assert not dirty.calendar_changed

    def test_in_period_calendar_addition_flags(self):
        world = _world()
        # Not on the weekly calendar, inside the 2019 H1 study period.
        dirty = compute_dirty_set(
            world, EpochDelta(epoch=1, scan_dates=(date(2019, 2, 6),))
        )
        assert dirty.calendar_changed
        # An *existing* in-period date is not a calendar change.
        dirty = compute_dirty_set(
            world, EpochDelta(epoch=1, scan_dates=(world.scan.scan_dates[0],))
        )
        assert not dirty.calendar_changed

    def test_transitive_ring_follows_shared_certificates(self):
        world = _world()
        delta = _delta(world)
        dirty = reference_dirty_rings(world, delta)
        # Every churned active's *base* certificate is hot, and the
        # background population draws from the same 64-cert pool: the
        # background domain with the matching pool slot must be dirty.
        table = world.scan.table
        churned = sorted(dirty.scan_direct)[0]
        lo, hi = table.domain_slice(churned)
        base_fp = table.cert_fps[table.cert_id[table.csr_rows[lo]]]
        sharers = {
            base
            for row in range(len(table))
            if table.cert_fps[table.cert_id[row]] == base_fp
            for base in table.base_sets[table.bases_id[row]]
        }
        background_sharers = {d for d in sharers if d.startswith("bg-")}
        assert background_sharers
        assert background_sharers <= dirty.transitive

    def test_pdns_ring_covers_delta_observations(self):
        world = _world()
        delta = _delta(world)
        dirty = reference_dirty_rings(world, delta)
        for rrname, _rtype, _rdata, _day in delta.pdns_observations:
            assert registered_domain(rrname) in dirty.pdns_touched

    def test_rdata_overlap_joins_the_transitive_ring(self):
        world = _world()
        # active-00000 resolves to 203.0.0.0 in the base pDNS; a delta
        # observation for an unrelated name with that rdata must pull
        # the co-resolving domain's registered base in.
        delta = EpochDelta(
            epoch=1,
            pdns_observations=(
                ("evil.example.org", RRType.A, "203.0.0.0", date(2019, 5, 1)),
            ),
        )
        dirty = reference_dirty_rings(world, delta)
        assert registered_domain("active-00000.example.com") in dirty.transitive

    def test_revocation_ring_reaches_cert_san_domains(self):
        world = _world()
        delta = _delta(world)
        cert = delta.ct_entries[0][0]
        revoking = replace(
            delta,
            revocations=((cert.fingerprint, date(2019, 8, 1), "keyCompromise"),),
        )
        dirty = reference_dirty_rings(world, revoking)
        for san in cert.sans:
            assert registered_domain(san) in dirty.ct_touched


class TestMergeInputs:
    def test_scan_overlay_shape(self):
        world = _world()
        delta = _delta(world)
        merged = merge_inputs(world, delta)
        assert len(merged.scan.table) == len(world.scan.table) + len(
            delta.scan_rows
        )
        assert merged.scan.scan_dates == tuple(
            sorted(set(world.scan.scan_dates) | set(delta.scan_dates))
        )
        # No brand-new domains in a scale delta: ordinals are stable.
        assert merged.scan.domains() == world.scan.domains()

    def test_pdns_observations_fold_in(self):
        world = _world()
        delta = _delta(world)
        merged = merge_inputs(world, delta)
        rrname, rtype, rdata, day = delta.pdns_observations[0]
        hits = [
            rec
            for rec in merged.pdns.all_records()
            if rec.rrname == rrname and rec.rtype == rtype and rec.rdata == rdata
        ]
        assert len(hits) == 1
        assert hits[0].first_seen == day
        assert hits[0].last_seen == day
        assert hits[0].count == 1
        # The base database is untouched.
        assert not any(
            rec.rdata == rdata and rec.rrname == rrname
            for rec in world.pdns.all_records()
        )

    def test_ct_entries_land_in_one_extra_log(self):
        world = _world()
        delta = _delta(world)
        merged = merge_inputs(world, delta)
        base_entries = sum(len(log.entries()) for log in world.crtsh._logs)
        merged_entries = sum(len(log.entries()) for log in merged.crtsh._logs)
        assert merged_entries == base_entries + len(delta.ct_entries)
        fingerprints = {
            entry.certificate.fingerprint
            for log in merged.crtsh._logs
            for entry in log.entries()
        }
        assert delta.ct_entries[0][0].fingerprint in fingerprints

    def test_revocations_install_into_a_copied_registry(self):
        world = _world()
        cert = _delta(world).ct_entries[0][0]
        delta = replace(
            _delta(world),
            revocations=((cert.fingerprint, date(2019, 8, 1), "superseded"),),
        )
        merged = merge_inputs(world, delta)
        assert cert.fingerprint in merged.crtsh._revocations._entries
        assert cert.fingerprint not in world.crtsh._revocations._entries

    def test_merged_run_equals_run_over_rebuilt_table(self):
        # The overlay vs a table rebuilt cold from the concatenated row
        # stream: same report, byte for byte.
        world = _world()
        delta = _delta(world)
        merged = merge_inputs(world, delta)
        builder = ScanTable.build()
        for row in _rows_of(merged.scan.table):
            builder.append_row(*row)
        rebuilt = ScanDataset.from_table(
            builder.finish(),
            merged.scan.scan_dates,
            known_missing_dates=merged.scan.known_missing_dates,
        )
        report, _ = HijackPipeline(replace(merged, scan=rebuilt)).profile()
        assert encode_report(report) == _cold_text(world, delta)


def _assert_partition(metrics, population: int) -> None:
    """Dirty plus reused is the population the deployment stage swept."""
    epoch = metrics.epoch
    assert epoch["domains"] == population
    assert metrics.stages[0].name == "deployment_maps"
    assert metrics.stages[0].n_in == population
    assert epoch["domains_dirty"] + epoch["domains_reused"] == population
    counters = metrics.metrics["counters"]
    assert counters["epoch.domains_dirty"] == epoch["domains_dirty"]
    assert counters["epoch.domains_reused"] == epoch["domains_reused"]


def _population(world, delta, faults=None) -> int:
    plan = FaultPlan.from_spec(faults)
    return len(apply_faults(merge_inputs(world, delta), plan, DataQuality()).scan.domains())


class TestRunEpoch:
    def test_no_cache_is_a_cold_merged_run(self):
        world = _world()
        delta = _delta(world)
        report, metrics, dirty = run_epoch(world, delta)
        assert encode_report(report) == _cold_text(world, delta)
        assert metrics.epoch["epoch"] == delta.epoch
        assert metrics.epoch["seeded"] is False
        # Without a cache the sweep recomputes every domain.
        assert metrics.epoch["domains_dirty"] == _population(world, delta)
        assert metrics.epoch["domains_reused"] == 0
        _assert_partition(metrics, _population(world, delta))
        assert metrics.epoch["calendar_changed"] is dirty.calendar_changed

    def test_seeded_warm_cache_reuses_clean_domains(self, tmp_path):
        world = _world()
        delta = _delta(world)
        cache = StageCache(tmp_path)
        HijackPipeline(world).profile(cache=cache)
        report, metrics, dirty = run_epoch(world, delta, cache=cache)
        assert encode_report(report) == _cold_text(world, delta)
        assert metrics.epoch["seeded"] is True
        assert metrics.epoch["reuse_disabled"] is None
        reused = metrics.epoch["domains_reused"]
        assert reused > 0
        assert reused + len(dirty.scan_direct) >= len(world.scan.domains())
        # Only the scan-direct ring gates reuse: exactly its merged
        # domains were re-encoded.
        merged_domains = set(merge_inputs(world, delta).scan.domains())
        assert metrics.epoch["domains_dirty"] == len(dirty.scan_direct & merged_domains)
        _assert_partition(metrics, _population(world, delta))
        # The pipeline's own sweep became a cache hit.
        assert metrics.stages[0].cached is True

    def test_epoch_counters_reach_ledger_and_openmetrics(self, tmp_path):
        from repro.obs import RunLedger, render_openmetrics

        world = _world()
        delta = _delta(world)
        cache = StageCache(tmp_path / "cache")
        HijackPipeline(world).profile(cache=cache)
        ledger = RunLedger(tmp_path / "ledger")
        _report, metrics, _dirty = run_epoch(world, delta, cache=cache, ledger=ledger)
        counters = ledger.latest().metrics["counters"]
        assert counters["epoch.domains_dirty"] == metrics.epoch["domains_dirty"]
        assert counters["epoch.domains_reused"] == metrics.epoch["domains_reused"]
        assert metrics.epoch["domains_reused"] > 0
        assert "repro_epoch_domains_dirty_total" in render_openmetrics(metrics.metrics)

    def test_cold_cache_declines_but_stays_identical(self, tmp_path):
        world = _world()
        delta = _delta(world)
        cache = StageCache(tmp_path)
        report, metrics, _dirty = run_epoch(world, delta, cache=cache)
        assert metrics.epoch["seeded"] is False
        assert metrics.epoch["reuse_disabled"] == "no-base-products"
        assert metrics.epoch["domains_reused"] == 0
        _assert_partition(metrics, _population(world, delta))
        assert encode_report(report) == _cold_text(world, delta)
        # The merged entry is banked now: a re-run is simply a hit, and
        # recomputes nothing.
        report, metrics, _dirty = run_epoch(world, delta, cache=cache)
        assert metrics.epoch["reuse_disabled"] == "already-cached"
        assert metrics.epoch["domains_dirty"] == 0
        _assert_partition(metrics, _population(world, delta))
        assert encode_report(report) == _cold_text(world, delta)

    def test_in_period_calendar_change_declines_seeding(self, tmp_path):
        world = _world()
        delta = replace(
            _delta(world), scan_dates=_delta(world).scan_dates + (date(2019, 2, 6),)
        )
        cache = StageCache(tmp_path)
        HijackPipeline(world).profile(cache=cache)
        report, metrics, dirty = run_epoch(world, delta, cache=cache)
        assert dirty.calendar_changed
        assert metrics.epoch["seeded"] is False
        assert metrics.epoch["reuse_disabled"] == "calendar-changed"
        assert metrics.epoch["domains_reused"] == 0
        _assert_partition(metrics, _population(world, delta))
        assert encode_report(report) == _cold_text(world, delta)

    def test_faulted_epoch_is_identical(self, tmp_path):
        spec = "scan.drop_weeks=0.2,pdns.blackouts=1"
        world = _world()
        delta = _delta(world)
        cache = StageCache(tmp_path)
        HijackPipeline(world, faults=spec).profile(cache=cache)
        report, metrics, _dirty = run_epoch(world, delta, faults=spec, cache=cache)
        assert metrics.epoch["seeded"] is True
        _assert_partition(metrics, _population(world, delta, faults=spec))
        assert encode_report(report) == _cold_text(world, delta, faults=spec)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_backends_are_identical(self, tmp_path, start_method):
        world = _world()
        delta = _delta(world)
        cache = StageCache(tmp_path)
        HijackPipeline(world).profile(cache=cache)
        backend = ProcessPoolBackend(jobs=2, start_method=start_method)
        report, metrics, _dirty = run_epoch(
            world, delta, backend=backend, cache=cache
        )
        assert metrics.epoch["seeded"] is True
        assert encode_report(report) == _cold_text(world, delta)

    @staticmethod
    def _bank_shard_products(world, cache: StageCache, n_shards: int, hole: int) -> None:
        """Bank what an interrupted base run leaves: per-shard products
        of every shard but ``hole``, recorded in a resume manifest."""
        plan = FaultPlan.from_spec(None)
        config = PipelineConfig()
        stage = build_stages()[0]
        degraded = apply_faults(world, plan, DataQuality())
        base_fp = stage_fingerprint(
            derive_run_key(degraded, plan, config), fingerprint_chain([stage])
        )
        domains = world.scan.domains()
        n = len(domains)
        encoded = [
            encode_domain_maps(
                world.scan, name, world.periods, config.max_gap_scans
            )
            for name in domains
        ]
        manifest = ResumeManifest(cache.root)
        for ordinal in range(n_shards):
            if ordinal == hole:
                continue
            lo = ordinal * n // n_shards
            hi = (ordinal + 1) * n // n_shards
            key = f"{base_fp}-shard-{ordinal}"
            cache.put(
                key,
                stage.name,
                StageStats(n_in=hi - lo, n_out=0),
                {"results": encoded[lo:hi]},
            )
            manifest.record(base_fp, "deployment", n, n_shards, ordinal, key)

    def test_seeds_from_banked_shard_products(self, tmp_path):
        # An interrupted base run leaves per-shard products plus a
        # resume manifest; the epoch engine must stitch them (holes
        # recomputed) instead of demanding a completed stage entry.
        world = _world()
        delta = _delta(world)
        cache = StageCache(tmp_path)
        n = len(world.scan.domains())
        n_shards = 4
        hole = 2
        self._bank_shard_products(world, cache, n_shards, hole)
        report, metrics, _dirty = run_epoch(world, delta, cache=cache)
        assert metrics.epoch["seeded"] is True
        _assert_partition(metrics, _population(world, delta))
        reused = metrics.epoch["domains_reused"]
        # The hole's quarter recomputes; the three banked shards reuse.
        assert 0 < reused <= n - (hole + 1) * n // n_shards + hole * n // n_shards
        assert encode_report(report) == _cold_text(world, delta)

    @pytest.mark.parametrize("source", ["stage-entry", "shard-products"])
    def test_seeding_copies_nothing_from_the_base(self, tmp_path, monkeypatch, source):
        # Both seeding sources re-encode over a table of the dirty
        # domains' rows, so the merged overlay never copies the base's
        # columns or splices its CSR arrays.
        from repro.segments import overlay

        world = _world()
        delta = _delta(world)
        expected = _cold_text(world, delta)
        cache = StageCache(tmp_path)
        if source == "stage-entry":
            HijackPipeline(world).profile(cache=cache)
        else:
            self._bank_shard_products(world, cache, n_shards=4, hole=2)

        def copied(*args):
            raise AssertionError("the merged overlay copied its base")

        monkeypatch.setattr(overlay, "_copy_array", copied)
        monkeypatch.setattr(overlay, "_splice_index", copied)
        report, metrics, _dirty = run_epoch(world, delta, cache=cache)
        assert metrics.epoch["seeded"] is True
        assert encode_report(report) == expected

    def test_seeding_binds_one_encoder(self, tmp_path, monkeypatch):
        # The dirty domains re-encode in one sweep of one encoder, which
        # binds the columns and the periods' calendars once.
        from repro.core import deployment

        world = _world()
        delta = _delta(world, fraction=0.25)
        expected = _cold_text(world, delta)
        cache = StageCache(tmp_path)
        HijackPipeline(world).profile(cache=cache)
        built = []
        encoder = deployment.domain_map_encoder

        def counted(*args, **kwargs):
            built.append(args)
            return encoder(*args, **kwargs)

        monkeypatch.setattr(deployment, "domain_map_encoder", counted)
        report, metrics, _dirty = run_epoch(world, delta, cache=cache)
        assert metrics.epoch["seeded"] is True
        assert metrics.epoch["domains_dirty"] == 8
        assert len(built) == 1
        assert encode_report(report) == expected

    def test_segment_backed_bundle(self, tmp_path):
        from repro.segments.inputs import load_segment_inputs
        from repro.world.scale import write_scale_segments

        write_scale_segments(160, tmp_path / "bundle", n_active=32, seed=0)
        inputs = load_segment_inputs(tmp_path / "bundle")
        delta = _delta()
        report, metrics, _dirty = run_epoch(inputs, delta)
        assert encode_report(report) == _cold_text(_world(), delta)

    def test_stacked_epochs(self, tmp_path):
        # Epoch 2 applies onto the merged result of epoch 1 and must
        # still match a cold run over base+delta1+delta2.
        world = _world()
        delta1 = _delta(world, epoch=1)
        cache = StageCache(tmp_path)
        HijackPipeline(world).profile(cache=cache)
        _report, metrics, _dirty = run_epoch(world, delta1, cache=cache)
        assert metrics.epoch["seeded"] is True
        merged1 = merge_inputs(world, delta1)
        delta2 = _delta(merged1, epoch=2)
        report, metrics, _dirty = run_epoch(merged1, delta2, cache=cache)
        assert metrics.epoch["seeded"] is True
        assert encode_report(report) == _cold_text(merged1, delta2)


class TestEpochCli:
    def test_delta_apply_status_flow(self, tmp_path, capsys):
        from repro.cli import main

        bundle = tmp_path / "bundle"
        assert (
            main(
                [
                    "segments", "write", "--out", str(bundle),
                    "--scale", "120", "--active", "24", "--seed", "0",
                ]
            )
            == 0
        )
        for epoch in (1, 2):
            delta_file = tmp_path / f"e{epoch}.delta"
            assert (
                main(
                    [
                        "epoch", "delta", "--out", str(delta_file),
                        "--scale", "120", "--active", "24", "--seed", "0",
                        "--fraction", "0.1", "--epoch", str(epoch),
                    ]
                )
                == 0
            )
            assert (
                main(["epoch", "apply", str(bundle), "--delta", str(delta_file)])
                == 0
            )
        state = json.loads((bundle / "epochs.json").read_text())
        assert [rec["epoch"] for rec in state["epochs"]] == [1, 2]
        assert (bundle / "deltas" / state["epochs"][0]["file"]).exists()
        assert main(["epoch", "status", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out
        assert "epoch 2" in out

    def test_apply_matches_library_run(self, tmp_path, capsys):
        from repro.cli import main

        bundle = tmp_path / "bundle"
        delta_file = tmp_path / "e1.delta"
        main(
            [
                "segments", "write", "--out", str(bundle),
                "--scale", "120", "--active", "24", "--seed", "0",
            ]
        )
        main(
            [
                "epoch", "delta", "--out", str(delta_file),
                "--scale", "120", "--active", "24", "--seed", "0",
                "--fraction", "0.1",
            ]
        )
        out_file = tmp_path / "findings.jsonl"
        profile = tmp_path / "profile.json"
        assert (
            main(
                [
                    "epoch", "apply", str(bundle), "--delta", str(delta_file),
                    "--out", str(out_file), "--profile", str(profile),
                ]
            )
            == 0
        )
        capsys.readouterr()
        manifest = json.loads(profile.read_text())
        assert manifest["epoch"]["epoch"] == 1
        assert manifest["epoch"]["domains"] == 120
        world = scale_world(120, n_active=24, seed=0)
        delta = read_delta(delta_file)
        report, _metrics, _dirty = run_epoch(world, delta)
        cli_findings = [
            json.loads(line)
            for line in out_file.read_text().splitlines()
            if line.strip()
        ]
        assert len(cli_findings) == len(report.findings)
