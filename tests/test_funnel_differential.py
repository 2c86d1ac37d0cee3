"""Kernel-vs-reference differentials for funnel stages 2–4 + assembly.

The pipeline's stages compute in interned-id space — ``classify_encoded``
over the deployment wire form, bisect row slices for shortlist evidence,
encoded inspection results decoded against the parent tables, and the
assemble stage's precomputed victim-infrastructure index.  Each test
re-derives one stage's product with a row-at-a-time reference from
``tests/reference.py`` (the object-graph ``classify``, the
record-filtering ``ReferenceShortlister``, an ``Inspector`` over the
linear pDNS and per-SAN CT models, a per-domain rescan of the
classification table) on randomized paper worlds across seeds, and
requires identity — verdicts, evidence, provenance trails, and the fault
runs' DataQuality ledgers alike.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cache import StageCache
from repro.core.inspection import Inspector, decode_inspection, encode_inspection
from repro.core.pipeline import HijackPipeline
from repro.core.types import Verdict
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.faults import DataQuality, apply_faults
from repro.world.scenarios import paper_study
from tests.reference import (
    ReferenceCrtSh,
    ReferencePdns,
    ReferenceShortlister,
    classify,
    victim_infra,
)

SEEDS = (3, 7, 21)
BACKGROUND = 12

_RUNS: dict[int, tuple] = {}


def _run(seed: int):
    """One pipeline + report per seed, shared across the module."""
    if seed not in _RUNS:
        study = paper_study(seed=seed, n_background=BACKGROUND)
        pipeline = HijackPipeline.from_study(study)
        _RUNS[seed] = (pipeline, pipeline.run())
    return _RUNS[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_classify_encoded_matches_object_classifier(seed):
    """Stage 2: every classification the encoded kernel produced equals
    the object-graph classifier's answer for the same map — kind,
    subpatterns, and the stable/transition/transient partitions."""
    pipeline, report = _run(seed)
    assert report.classifications
    for classification in report.classifications.values():
        reference = classify(classification.map, pipeline.config.patterns)
        assert classification == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_shortlist_columnar_matches_reference(seed):
    """Stage 3: the bisect-slice evidence path equals the
    record-filtering reference — entries, order, prune decisions."""
    pipeline, report = _run(seed)
    reference = ReferenceShortlister(
        pipeline.inputs.as2org, pipeline.inputs.scan, pipeline.config.shortlist
    )
    ref_entries, ref_decisions = reference.evaluate(report.classifications)
    assert report.shortlist == ref_entries  # transient_rows excluded from eq
    ref_pruned: dict[str, int] = {}
    for decision in ref_decisions:
        if not decision.kept:
            ref_pruned[decision.reason] = ref_pruned.get(decision.reason, 0) + 1
    assert report.funnel.prune_reasons == ref_pruned
    # The columnar entries additionally carry their row ids, and those
    # rows decode to exactly the evidence records shipped.
    table = pipeline.inputs.scan.table
    for entry in report.shortlist:
        assert entry.transient_rows
        assert [table.record(r) for r in entry.transient_rows] == entry.transient_records


def test_shortlist_matches_reference_on_degraded_scans():
    """Stage 3 with known-missing scans: the visibility check's
    denominator drops the lost weeks identically on both paths."""
    study = paper_study(seed=SEEDS[0], n_background=BACKGROUND)
    pipeline = HijackPipeline.from_study(study, faults="scan.drop_weeks=0.3")
    report = pipeline.run()
    scan = apply_faults(pipeline.inputs, pipeline.faults, DataQuality()).scan
    assert scan.known_missing_dates
    reference = ReferenceShortlister(
        pipeline.inputs.as2org, scan, pipeline.config.shortlist
    )
    ref_entries, ref_decisions = reference.evaluate(report.classifications)
    assert report.shortlist == ref_entries
    assert report.funnel.prune_reasons == Counter(
        d.reason for d in ref_decisions if not d.kept
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_inspection_wire_form_matches_reference(seed):
    """Stage 4: the encoded worker results, decoded against the parent
    tables, equal an Inspector run over the linear pDNS model and the
    per-SAN CT list index — including the T1* second pass."""
    pipeline, report = _run(seed)
    inputs = pipeline.inputs
    inspector = Inspector(
        ReferencePdns.from_records(inputs.pdns.all_records()),
        ReferenceCrtSh.from_service(inputs.crtsh),
        pipeline.config.inspection,
    )
    reference = inspector.inspect_many(report.shortlist)
    confirmed = {
        ip
        for r in reference
        if r.verdict is Verdict.HIJACKED
        for ip in r.attacker_ips
    }
    if pipeline.config.enable_t1_star:
        pending = [r for r in reference if r.pending_t1_star]
        Inspector.resolve_t1_star(pending, frozenset(confirmed))
    assert report.inspections == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_inspection_encode_decode_round_trips(seed):
    pipeline, report = _run(seed)
    pdns, crtsh = pipeline.inputs.pdns, pipeline.inputs.crtsh
    for result in report.inspections:
        encoded = encode_inspection(result, pdns, crtsh)
        assert decode_inspection(encoded, result.entry, pdns, crtsh) == result


@pytest.mark.parametrize("seed", SEEDS)
def test_assemble_matches_reference_builder(seed):
    """Assembly: every finding's victim infrastructure, taken from the
    precomputed index, equals a per-domain rescan of the classification
    table, and the findings are ordered by it."""
    pipeline, report = _run(seed)
    assert report.findings
    infra = {
        f.domain: victim_infra(report.classifications, f.domain)
        for f in report.findings
    }
    assert [(f.victim_asns, f.victim_ccs) for f in report.findings] == [
        infra[f.domain] for f in report.findings
    ]
    keys = [
        ((infra[f.domain][1] or ("zz",))[0], f.domain) for f in report.findings
    ]
    assert keys == sorted(keys)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_quality_ledger_identical_across_backends_and_cache(seed, tmp_path):
    """Fault runs: the DataQuality ledger (and the report) are identical
    serial vs pooled and cold vs warm — the encoded cache products carry
    no backend- or temperature-dependent state."""
    from repro.io.golden import encode_report

    spec = "scan.drop_weeks=0.2,pdns.blackouts=1,ct.delay_days=3"
    study = paper_study(seed=seed, n_background=BACKGROUND)
    pipeline = HijackPipeline.from_study(study, faults=spec)
    cache = StageCache(tmp_path)
    cold_report, cold = pipeline.profile(SerialBackend(), cache=cache)
    warm_report, warm = pipeline.profile(SerialBackend(), cache=cache)
    pool_report, pool = pipeline.profile(ProcessPoolBackend(2), cache=cache)
    assert cold.data_quality == warm.data_quality == pool.data_quality
    assert encode_report(cold_report) == encode_report(warm_report)
    assert encode_report(cold_report) == encode_report(pool_report)
    by_name = {s.name: s for s in warm.stages}
    for name in ("classify", "assemble"):
        assert by_name[name].cached is True
