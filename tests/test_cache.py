"""The content-addressed stage cache: store, fingerprints, run wiring.

The differential byte-identity checks against the pinned golden reports
live in ``tests/test_golden_reports.py``; this module covers the cache
mechanics themselves — entry round-trips, corruption detection and
eviction, LRU garbage collection, fault-plan keying, the manifest's
``cache`` section, and the ``repro-hunt cache`` CLI.
"""

from __future__ import annotations

import os

import pytest

from repro.cache import StageCache, derive_run_key, stage_fingerprint
from repro.cache.store import _MAGIC
from repro.cli import main
from repro.core.pipeline import PipelineConfig, PipelineInputs, build_stages
from repro.exec.metrics import StageStats, format_run_metrics
from repro.exec.stage import fingerprint_chain
from repro.faults import FaultPlan
from repro.io.golden import encode_report


def _entry_files(cache: StageCache) -> list:
    return sorted(cache.root.glob("??/*.entry"))


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = StageCache(tmp_path)
        products = {"shortlist": ["a", "b"], "decisions": [("c", True)]}
        nbytes = cache.put("ab" * 24, "shortlist", StageStats(5, 2), products)
        entry = cache.get("ab" * 24)
        assert entry is not None
        assert entry.stage == "shortlist"
        assert entry.stats.n_in == 5 and entry.stats.n_out == 2
        assert entry.products == products
        assert entry.nbytes == nbytes
        assert cache.counters.hits == 1
        assert cache.counters.bytes_read == nbytes

    def test_absent_fingerprint_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        assert cache.get("cd" * 24) is None
        assert cache.counters.misses == 1
        assert cache.counters.evictions == 0

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda blob: blob[: len(blob) // 2],            # truncated
            lambda blob: blob[:-3] + b"xyz",                # flipped payload
            lambda blob: b"not-a-cache-entry" + blob[17:],  # foreign magic
            lambda blob: _MAGIC + b"short\n" + blob,        # malformed header
        ],
        ids=["truncated", "bitflip", "bad-magic", "bad-header"],
    )
    def test_corrupt_entry_is_evicted_not_crashed(self, tmp_path, mangle):
        cache = StageCache(tmp_path)
        fingerprint = "ef" * 24
        cache.put(fingerprint, "pivot", StageStats(1, 1), {"pivots": []})
        (path,) = _entry_files(cache)
        path.write_bytes(mangle(path.read_bytes()))
        assert cache.get(fingerprint) is None
        assert not path.exists(), "corrupt entry must be evicted"
        assert cache.counters.evictions == 1
        # The slot is writable again and the rewrite round-trips.
        cache.put(fingerprint, "pivot", StageStats(1, 1), {"pivots": []})
        assert cache.get(fingerprint) is not None

    def test_unpicklable_payload_is_a_miss(self, tmp_path):
        import hashlib

        cache = StageCache(tmp_path)
        payload = b"\x80\x05garbage"
        checksum = hashlib.blake2b(payload, digest_size=16).hexdigest()
        path = cache._path("aa" * 24)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_MAGIC + checksum.encode() + b"\n" + payload)
        assert cache.get("aa" * 24) is None
        assert not path.exists()

    def test_stats_clear(self, tmp_path):
        cache = StageCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 24, "s", StageStats(1, 1), {"x": i})
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes == sum(p.stat().st_size for p in _entry_files(cache))
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_gc_evicts_least_recently_used(self, tmp_path):
        cache = StageCache(tmp_path)
        for i in range(4):
            cache.put(f"{i:02d}" * 24, "s", StageStats(1, 1), {"x": list(range(50))})
        paths = {p.name: p for p in _entry_files(cache)}
        # Age everything, then touch entry 2 via get() — the LRU order
        # must come from read recency, not write order.
        for name, path in paths.items():
            os.utime(path, (1000, 1000))
        assert cache.get("02" * 24) is not None
        size = next(iter(paths.values())).stat().st_size
        result = cache.gc(max_bytes=size)
        assert result.kept == 1
        assert result.removed == 3
        assert cache.get("02" * 24) is not None
        assert cache.get("01" * 24) is None  # evicted → miss

    def test_gc_zero_budget_clears_everything(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.put("aa" * 24, "s", StageStats(1, 1), {"x": 1})
        result = cache.gc(max_bytes=0)
        assert result.removed == 1 and result.kept == 0
        assert cache.stats().entries == 0

    def test_gc_pins_resume_manifest_units(self, tmp_path):
        """A live resume manifest and its banked shard entries are one
        unit: gc keeps them all regardless of age or budget, and they
        become ordinary evictable entries once the manifest is
        discarded."""
        from repro.cache.resume import ResumeManifest

        cache = StageCache(tmp_path)
        manifest = ResumeManifest(cache.root)
        base_fp = "ab" * 24
        shard_keys = [f"{base_fp}-shard-{i}" for i in range(2)]
        cache.put(base_fp, "deployment", StageStats(4, 0), {"partial": True})
        for ordinal, key in enumerate(shard_keys):
            cache.put(key, "deployment", StageStats(2, 0), {"results": [(), ()]})
            manifest.record(base_fp, "deployment", 4, 2, ordinal, key)
        cache.put("cd" * 24, "s", StageStats(1, 1), {"x": list(range(50))})
        for path in _entry_files(cache):
            os.utime(path, (1000, 1000))  # everything is ancient

        result = cache.gc(max_bytes=0)
        assert result.kept == 3  # fingerprint + both shard entries
        assert result.removed == 1  # only the unpinned entry went
        assert cache.get(base_fp) is not None
        for key in shard_keys:
            assert cache.get(key) is not None

        manifest.discard(base_fp)
        result = cache.gc(max_bytes=0)
        assert result.kept == 0
        assert cache.stats().entries == 0


class TestRunWiring:
    def test_cold_then_warm_is_byte_identical(self, small_study, tmp_path):
        cache = StageCache(tmp_path)
        cold, cold_metrics = small_study.profile_pipeline(cache=cache)
        warm, warm_metrics = small_study.profile_pipeline(cache=cache)
        baseline = small_study.run_pipeline()
        assert encode_report(cold) == encode_report(baseline)
        assert encode_report(warm) == encode_report(baseline)
        assert cold_metrics.cache["misses"] > 0
        assert cold_metrics.cache["hits"] == 0
        assert warm_metrics.cache["hits"] == cold_metrics.cache["stores"]
        assert warm_metrics.cache["misses"] == 0
        assert warm_metrics.cache["bytes_read"] == cold_metrics.cache["bytes_written"]

    def test_warm_manifest_marks_cached_stages(self, small_study, tmp_path):
        cache = StageCache(tmp_path)
        small_study.profile_pipeline(cache=cache)
        _, metrics = small_study.profile_pipeline(cache=cache)
        by_name = {s.name: s for s in metrics.stages}
        for name in (
            "deployment_maps",
            "classify",
            "shortlist",
            "inspect",
            "pivot",
            "assemble",
        ):
            assert by_name[name].cached is True
            assert by_name[name].busy_seconds == 0.0
            assert by_name[name].utilization == 0.0
        rendered = format_run_metrics(metrics)
        assert "cached" in rendered
        assert "cache:" in rendered

    def test_cached_stage_keeps_funnel_cardinalities(self, small_study, tmp_path):
        cache = StageCache(tmp_path)
        _, cold = small_study.profile_pipeline(cache=cache)
        _, warm = small_study.profile_pipeline(cache=cache)
        for cold_stage, warm_stage in zip(cold.stages, warm.stages):
            assert warm_stage.n_in == cold_stage.n_in
            assert warm_stage.n_out == cold_stage.n_out

    def test_uncached_run_has_no_cache_section(self, small_study):
        _, metrics = small_study.profile_pipeline()
        assert metrics.cache is None
        assert "cache:" not in format_run_metrics(metrics)

    def test_worker_fault_seed_is_normalized(self, small_study, tmp_path):
        """Worker faults are timing-only — no draw of theirs ever
        reaches a product — so a different --fault-seed on a
        worker-only plan shares the clean plan's run key and warm-hits
        its entries.  This is the invariant that lets a crash-injected
        run's banked shards satisfy the clean re-run."""
        cache = StageCache(tmp_path)
        spec = "workers.slow=0.1,workers.slow_ms=1"
        _, first = small_study.profile_pipeline(
            faults=FaultPlan.from_spec(spec, seed=1), cache=cache
        )
        assert first.cache["hits"] == 0
        rerun, second = small_study.profile_pipeline(
            faults=FaultPlan.from_spec(spec, seed=2), cache=cache
        )
        assert second.cache["misses"] == 0
        assert second.cache["hits"] > 0
        cold_rerun = small_study.run_pipeline(
            faults=FaultPlan.from_spec(spec, seed=2)
        )
        assert encode_report(rerun) == encode_report(cold_rerun)

    def test_different_data_fault_seed_misses(self, small_study, tmp_path):
        """A data fault's seed picks which records degrade, so with a
        data channel active the seed is key material again — a
        different --fault-seed must never hit."""
        cache = StageCache(tmp_path)
        spec = "scan.drop_weeks=0.3"
        _, first = small_study.profile_pipeline(
            faults=FaultPlan.from_spec(spec, seed=1), cache=cache
        )
        _, second = small_study.profile_pipeline(
            faults=FaultPlan.from_spec(spec, seed=2), cache=cache
        )
        assert first.cache["hits"] == 0
        assert second.cache["hits"] == 0

    def test_dataset_faults_key_on_degraded_content(self, small_study, tmp_path):
        cache = StageCache(tmp_path)
        small_study.profile_pipeline(cache=cache)
        _, degraded = small_study.profile_pipeline(
            faults=FaultPlan.from_spec("scan.drop_weeks=0.3", seed=5), cache=cache
        )
        assert degraded.cache["hits"] == 0

    def test_empty_plan_seed_is_normalized(self, small_study, tmp_path):
        """An empty plan is byte-identical to no plan, so its seed must
        not key differently — seed 99 warm-hits the seed-0 entries."""
        cache = StageCache(tmp_path)
        small_study.profile_pipeline(cache=cache)
        _, metrics = small_study.profile_pipeline(
            faults=FaultPlan.from_spec(None, seed=99), cache=cache
        )
        assert metrics.cache["misses"] == 0

    def test_corrupted_entry_mid_cache_recomputes(self, small_study, tmp_path):
        cache = StageCache(tmp_path)
        cold, _ = small_study.profile_pipeline(cache=cache)
        victim = _entry_files(cache)[0]
        victim.write_bytes(victim.read_bytes()[:40])
        warm, metrics = small_study.profile_pipeline(cache=cache)
        assert encode_report(warm) == encode_report(cold)
        assert metrics.cache["misses"] == 1
        assert metrics.cache["stores"] == 1  # the slot was refilled
        _, rewarm = small_study.profile_pipeline(cache=cache)
        assert rewarm.cache["misses"] == 0

    def test_config_change_invalidates_downstream_only(self, small_study, tmp_path):
        """Scoped config deps: sweeping an inspection knob reuses the
        deployment maps and the shortlist."""
        from repro.core.inspection import InspectionConfig

        cache = StageCache(tmp_path)
        small_study.profile_pipeline(cache=cache)
        config = PipelineConfig(inspection=InspectionConfig(window_days=21))
        _, metrics = small_study.profile_pipeline(config=config, cache=cache)
        by_name = {s.name: s for s in metrics.stages}
        assert by_name["deployment_maps"].cached is True
        assert by_name["shortlist"].cached is True
        assert by_name["inspect"].cached is False
        assert by_name["pivot"].cached is False

    def test_unknown_config_dep_raises(self, small_study):
        inputs = PipelineInputs.from_study(small_study)
        key = derive_run_key(inputs, FaultPlan.from_spec(None), PipelineConfig())
        stage = build_stages()[0]
        stage.config_deps = ("no_such_knob",)
        with pytest.raises(ValueError, match="unknown config dependencies"):
            stage_fingerprint(key, fingerprint_chain([stage]))

    def test_unknown_input_channel_raises(self, small_study):
        inputs = PipelineInputs.from_study(small_study)
        key = derive_run_key(inputs, FaultPlan.from_spec(None), PipelineConfig())
        stage = build_stages()[0]
        stage.input_deps = ("scan", "whois")
        with pytest.raises(ValueError, match="unknown input channels"):
            stage_fingerprint(key, fingerprint_chain([stage]))


class TestCacheCLI:
    def _populate(self, small_study, directory) -> StageCache:
        cache = StageCache(directory)
        small_study.run_pipeline(cache=cache)
        return cache

    def test_stats_clear_gc(self, small_study, tmp_path, capsys):
        cache = self._populate(small_study, tmp_path / "cache")
        n_entries = cache.stats().entries
        assert n_entries > 0

        assert main(["-q", "cache", "stats", "--dir", str(cache.root)]) == 0
        out = capsys.readouterr().out
        assert f"{n_entries} entries" in out

        assert main([
            "-q", "cache", "gc", "--dir", str(cache.root), "--max-bytes", "1",
        ]) == 0
        assert "evicted" in capsys.readouterr().out
        assert cache.stats().entries < n_entries

        assert main(["-q", "cache", "clear", "--dir", str(cache.root)]) == 0
        assert "removed" in capsys.readouterr().out
        assert cache.stats().entries == 0

    def test_gc_requires_max_bytes(self, tmp_path, capsys):
        assert main(["-q", "cache", "gc", "--dir", str(tmp_path)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_no_directory_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["-q", "cache", "stats"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_env_default_directory(self, small_study, tmp_path, capsys, monkeypatch):
        cache = self._populate(small_study, tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache.root))
        assert main(["-q", "cache", "stats"]) == 0
        assert "entries" in capsys.readouterr().out

    def test_paper_cache_flag_round_trip(self, tmp_path, capsys):
        """`paper --cache DIR` twice: the second run is all hits and
        prints the same tables."""
        args = [
            "-q", "paper", "--seed", "7", "--background", "12",
            "--cache", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out
        assert StageCache(tmp_path / "cache").stats().entries > 0

    def test_no_cache_flag_disables_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
        assert main([
            "-q", "paper", "--seed", "7", "--background", "12", "--no-cache",
        ]) == 0
        capsys.readouterr()
        assert not (tmp_path / "never").exists()
