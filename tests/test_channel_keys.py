"""Stage keys by input channel.

Every stage declares the input channels it reads (``Stage.input_deps``)
and its fingerprint folds the digests of exactly the channels its chain
prefix declares.  The funnel splits the way the paper's data sets do:
deployment maps, classification and the shortlist read the scans (plus
AS2Org for the shortlist); inspection and the pivot are the only steps
that read passive DNS and CT.  So an epoch whose delta carries only pDNS
or only CT evidence finds the base run's scan-side entries under its own
keys and re-runs only the funnel tail — which is sound only if every
stage's declaration covers everything it reads, which the first class
below checks by running each stage with its undeclared channels
replaced by objects that raise on any access.
"""

from __future__ import annotations

import shutil
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest

from repro.cache import StageCache
from repro.cache.fingerprint import INPUT_CHANNELS, derive_run_key, stage_fingerprint
from repro.core.pipeline import (
    HijackPipeline,
    HuntContext,
    PipelineConfig,
    PipelineInputs,
    build_stages,
)
from repro.epochs import EpochDelta, merge_inputs, run_epoch, write_delta
from repro.exec import SerialBackend, fingerprint_chain
from repro.faults import DataQuality, FaultPlan
from repro.io.golden import encode_report
from repro.world.scale import make_delta, scale_world

import tests.test_epochs as epoch_tests
from tests.test_golden_reports import _study

#: The bundle field behind each input channel.
_FIELDS = {
    "scan": "scan",
    "pdns": "pdns",
    "ct": "crtsh",
    "as2org": "as2org",
    "periods": "periods",
    "routing": "routing",
    "geo": "geo",
}

_SCAN_SIDE = ("deployment_maps", "classify", "shortlist")
_TAIL = ("inspect", "pivot", "assemble")


def _paper() -> PipelineInputs:
    return PipelineInputs.from_study(_study(7))


def _pdns_delta(inputs: PipelineInputs, epoch: int = 1) -> EpochDelta:
    """Every tenth pDNS aggregate seen once more, a week after the
    latest observation."""
    records = sorted(
        inputs.pdns.all_records(), key=lambda r: (r.rrname, r.rtype.value, r.rdata)
    )
    day = max(r.last_seen for r in records) + timedelta(days=7 * epoch)
    return EpochDelta(
        epoch=epoch,
        label=f"pdns-only-{epoch}",
        pdns_observations=tuple(
            (r.rrname, r.rtype, r.rdata, day) for r in records[::10]
        ),
    )


def _ct_delta(inputs: PipelineInputs, epoch: int = 1) -> EpochDelta:
    """Every tenth logged certificate logged again a month later, and
    one revocation."""
    entries = sorted(
        (entry for log in inputs.crtsh._logs for entry in log.entries()),
        key=lambda e: (e.timestamp, e.certificate.fingerprint),
    )
    picked = entries[::10]
    revoked = picked[0]
    return EpochDelta(
        epoch=epoch,
        label=f"ct-only-{epoch}",
        ct_entries=tuple(
            (e.certificate, e.timestamp + timedelta(days=30)) for e in picked
        ),
        revocations=(
            (
                revoked.certificate.fingerprint,
                revoked.timestamp + timedelta(days=45),
                "keyCompromise",
            ),
        ),
    )


_DELTAS = {"pdns": _pdns_delta, "ct": _ct_delta}


def _cold(inputs: PipelineInputs, delta: EpochDelta) -> str:
    """The oracle: a cold serial run over the merged bundle."""
    report, _ = HijackPipeline(merge_inputs(inputs, delta)).profile(SerialBackend())
    return encode_report(report)


@pytest.fixture
def reads(monkeypatch) -> Counter:
    """Every fingerprint ``StageCache.get`` reads, counted."""
    seen: Counter = Counter()
    get = StageCache.get

    def counted(self, fingerprint):
        seen[fingerprint] += 1
        return get(self, fingerprint)

    monkeypatch.setattr(StageCache, "get", counted)
    return seen


def _assert_counters(metrics, population: int) -> None:
    epoch, counters = metrics.epoch, metrics.metrics["counters"]
    assert epoch["domains"] == population
    assert epoch["domains_dirty"] + epoch["domains_reused"] == population
    assert counters["epoch.domains_dirty"] == epoch["domains_dirty"]
    assert counters["epoch.domains_reused"] == epoch["domains_reused"]
    assert (
        counters["classify.domains_recomputed"] + counters["classify.domains_reused"]
        == population
    )


def test_stages_declare_the_paper_channel_split():
    declared = {name: deps for name, _, _, deps in fingerprint_chain(build_stages())}
    assert declared == {
        "deployment_maps": ("scan", "periods"),
        "classify": ("scan", "periods"),
        "shortlist": ("scan", "periods", "as2org"),
        "inspect": ("pdns", "ct"),
        "pivot": ("pdns", "ct"),
        "assemble": None,
    }
    for deps in declared.values():
        assert deps is None or set(deps) <= set(INPUT_CHANNELS)


# -- declared reads are complete -----------------------------------------------


class _Unread:
    """A channel the stage under test did not declare: any access raises."""

    def __init__(self, channel: str) -> None:
        object.__setattr__(self, "_channel", channel)

    def _fail(self, *args, **kwargs):
        raise AssertionError(
            f"read undeclared channel {object.__getattribute__(self, '_channel')!r}"
        )

    def __getattribute__(self, name):
        object.__getattribute__(self, "_fail")()

    __setattr__ = __len__ = __iter__ = __bool__ = __contains__ = _fail
    __getitem__ = __eq__ = __hash__ = __reduce_ex__ = _fail

    def __repr__(self) -> str:
        return f"<unread {object.__getattribute__(self, '_channel')}>"


def _run_prefix(inputs, config, stages, upto: int) -> HuntContext:
    """A context holding the products of ``stages[:upto]``, computed
    normally."""
    ctx = HuntContext(inputs=inputs, config=config, quality=DataQuality())
    backend = SerialBackend()
    backend.start(inputs, config)
    for stage in stages[:upto]:
        stage.run(ctx, backend)
    return ctx


@pytest.mark.parametrize("index", range(6), ids=[s.name for s in build_stages()])
def test_each_stage_reads_only_its_declared_channels(index):
    inputs, config = _paper(), PipelineConfig()
    stages = build_stages()
    chain = fingerprint_chain(stages)
    declared = set()
    for *_, deps in chain[: index + 1]:
        declared = set(INPUT_CHANNELS) if deps is None else declared | set(deps)
    stage = stages[index]

    expected = _run_prefix(inputs, config, stages, index + 1)
    ctx = _run_prefix(inputs, config, stages, index)
    guarded = replace(
        inputs,
        **{_FIELDS[c]: _Unread(c) for c in INPUT_CHANNELS if c not in declared},
    )
    ctx.inputs = guarded
    backend = SerialBackend()
    backend.start(guarded, config)
    stage.run(ctx, backend)
    ctx.inputs = expected.inputs = inputs
    assert stage.cache_products(ctx) == stage.cache_products(expected)
    if stage.name != "assemble":
        assert declared != set(INPUT_CHANNELS)


# -- channel-scoped reuse --------------------------------------------------------


class TestEvidenceOnlyEpoch:
    @pytest.mark.parametrize("channel", sorted(_DELTAS))
    def test_reuses_the_scan_side_stages(self, tmp_path, reads, channel):
        inputs = _paper()
        delta = _DELTAS[channel](inputs)
        cache = StageCache(tmp_path)
        HijackPipeline(inputs).profile(SerialBackend(), cache=cache)
        reads.clear()

        report, metrics, dirty = run_epoch(inputs, delta, cache=cache)

        cached = {s.name: s.cached for s in metrics.stages}
        assert cached == {**dict.fromkeys(_SCAN_SIDE, True), **dict.fromkeys(_TAIL, False)}
        assert encode_report(report) == _cold(inputs, delta)
        assert metrics.epoch["reuse_disabled"] == "already-cached"
        assert not dirty.scan_direct
        population = len(inputs.scan.domains())
        _assert_counters(metrics, population)
        assert metrics.epoch["domains_reused"] == population
        assert metrics.metrics["counters"]["classify.domains_reused"] == population
        # Seeding decoded nothing: the executor's reads are the only ones.
        assert max(reads.values()) == 1
        assert len(reads) == len(build_stages())

    def test_corrupt_banked_classify_entry_is_recomputed(self, tmp_path):
        inputs = _paper()
        delta = _pdns_delta(inputs)
        cache = StageCache(tmp_path)
        HijackPipeline(inputs).profile(SerialBackend(), cache=cache)
        plan, config = FaultPlan.from_spec(None), PipelineConfig()
        key = derive_run_key(inputs, plan, config)
        classify_fp = stage_fingerprint(key, fingerprint_chain(build_stages())[:2])
        path = cache._path(classify_fp)
        path.write_bytes(path.read_bytes()[:-7] + b"garbage")

        report, metrics, _dirty = run_epoch(inputs, delta, cache=cache)

        cached = {s.name: s.cached for s in metrics.stages}
        assert cached["deployment_maps"] and cached["shortlist"]
        assert not cached["classify"]
        population = len(inputs.scan.domains())
        _assert_counters(metrics, population)
        counters = metrics.metrics["counters"]
        assert counters["classify.domains_recomputed"] == population
        assert metrics.epoch["domains_reused"] == population
        assert encode_report(report) == _cold(inputs, delta)
        assert cache.get(classify_fp) is not None

    def test_seeding_from_shard_products_reads_each_entry_once(self, tmp_path, reads):
        # An interrupted base run banked per-shard encodings only; a
        # delta without scan evidence keys the merged stages at the base
        # addresses, which seeding must not probe ahead of the executor.
        world = epoch_tests._world()
        cache = StageCache(tmp_path)
        epoch_tests.TestRunEpoch._bank_shard_products(world, cache, n_shards=4, hole=2)
        delta = _pdns_delta(world)
        reads.clear()

        report, metrics, _dirty = run_epoch(world, delta, cache=cache)

        assert metrics.epoch["seeded"] is True
        assert max(reads.values()) == 1
        _assert_counters(metrics, len(world.scan.domains()))
        assert encode_report(report) == _cold(world, delta)


class TestScanDelta:
    def test_rekeys_every_stage_and_reads_each_entry_once(self, tmp_path, reads):
        world = scale_world(160, n_active=32, seed=0)
        delta = make_delta(world, seed=0, fraction=0.1, epoch=1)
        plan, config = FaultPlan.from_spec(None), PipelineConfig()
        chain = fingerprint_chain(build_stages())
        base_key = derive_run_key(world, plan, config)
        merged_key = derive_run_key(merge_inputs(world, delta), plan, config)
        for k in range(1, len(chain) + 1):
            assert stage_fingerprint(base_key, chain[:k]) != stage_fingerprint(
                merged_key, chain[:k]
            ), chain[k - 1][0]

        cache = StageCache(tmp_path)
        HijackPipeline(world).profile(SerialBackend(), cache=cache)
        reads.clear()
        report, metrics, _dirty = run_epoch(world, delta, cache=cache)

        cached = {s.name: s.cached for s in metrics.stages}
        # The two per-domain stages were seeded; the rest re-ran.
        assert cached == {
            **dict.fromkeys(("deployment_maps", "classify"), True),
            **dict.fromkeys(("shortlist", *_TAIL), False),
        }
        assert metrics.epoch["seeded"] is True
        assert max(reads.values()) == 1
        _assert_counters(metrics, len(merge_inputs(world, delta).scan.domains()))
        assert encode_report(report) == _cold(world, delta)


# -- the CLI's epoch line --------------------------------------------------------


def test_epoch_apply_reports_reuse_off_only_when_nothing_was_reused(tmp_path, capsys):
    from repro.cli import main

    bundle, cache = tmp_path / "bundle", tmp_path / "cache"
    args = ["--scale", "120", "--active", "24", "--seed", "0"]
    assert main(["segments", "write", "--out", str(bundle), *args, "-q"]) == 0
    assert main(["hunt", "--segments", str(bundle), "--cache", str(cache), "-q"]) == 0
    write_delta(_pdns_delta(scale_world(120, n_active=24, seed=0)), tmp_path / "pdns.delta")
    capsys.readouterr()

    apply = ["epoch", "apply", str(bundle), "-q"]
    assert main([*apply, "--delta", str(tmp_path / "pdns.delta"), "--cache", str(cache)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "epoch 1 (pdns-only-1): 0 dirty of 120 domains, 120 reused"

    delta_file = tmp_path / "scan.delta"
    assert main(["epoch", "delta", "--out", str(delta_file), *args, "--epoch", "2"]) == 0
    capsys.readouterr()
    shutil.rmtree(cache)
    assert main([*apply, "--delta", str(delta_file), "--cache", str(cache)]) == 0
    second = capsys.readouterr().out.splitlines()[0]
    assert second == (
        "epoch 2 (scale-delta-seed0-epoch2): 120 dirty of 120 domains, 0 reused "
        "(reuse off: no-base-products)"
    )
