"""Tests for the naive rule-based detectors (stage-value comparison)."""

from repro.baseline.naive import (
    NaiveResult,
    flag_all_transients,
    flag_shortlisted,
    format_comparison,
)
from repro.core.pipeline import HijackPipeline, PipelineInputs
from repro.faults import DataQuality, FaultPlan, apply_faults


class TestScoring:
    def test_score_arithmetic(self):
        result = NaiveResult("x", frozenset({"a.com", "b.com", "c.com"}))
        precision, recall, fp = result.score({"a.com", "d.com"})
        assert precision == 1 / 3
        assert recall == 0.5
        assert fp == 2

    def test_empty_flagged(self):
        precision, recall, fp = NaiveResult("x", frozenset()).score({"a.com"})
        assert (precision, recall, fp) == (1.0, 0.0, 0)


class TestNaiveDetectors:
    def test_all_transients_flags_victim_and_more(self, small_study):
        result = flag_all_transients(small_study.scan, small_study.periods)
        truth = small_study.ground_truth.domains()
        assert truth <= result.flagged
        # Without the heuristics, benign lookalikes get flagged too.
        _, recall, _ = result.score(truth)
        assert recall == 1.0

    def test_shortlist_is_a_subset_of_all_transients(self, small_study):
        everything = flag_all_transients(small_study.scan, small_study.periods)
        shortlisted = flag_shortlisted(
            small_study.scan, small_study.periods, small_study.as2org
        )
        assert shortlisted.flagged <= everything.flagged

    def test_stage_precision_is_monotone(self, paper, paper_report):
        """Each stage of the funnel improves (or preserves) precision:
        all-transients <= shortlist <= full pipeline."""
        truth = paper.ground_truth.domains()
        everything = flag_all_transients(paper.scan, paper.periods)
        shortlisted = flag_shortlisted(paper.scan, paper.periods, paper.as2org)
        pipeline = NaiveResult(
            "full-pipeline", frozenset(f.domain for f in paper_report.findings)
        )
        p_all, _, _ = everything.score(truth)
        p_short, _, _ = shortlisted.score(truth)
        p_full, r_full, fp_full = pipeline.score(truth)
        assert p_all <= p_short <= p_full
        assert p_full == 1.0 and fp_full == 0

    def test_shortlist_matches_pipeline_on_degraded_scans(self, paper):
        """flag_shortlisted is the pipeline's steps 1-3: on a scan dataset
        with lost weeks it discounts the known-missing scans exactly as
        the pipeline's shortlist stage does."""
        plan = FaultPlan.from_spec("scan.drop_weeks=0.2")
        degraded = apply_faults(PipelineInputs.from_study(paper), plan, DataQuality())
        assert degraded.scan.known_missing_dates
        report = HijackPipeline.from_study(paper, faults=plan).run()
        shortlisted = flag_shortlisted(degraded.scan, degraded.periods, degraded.as2org)
        assert shortlisted.flagged == {e.domain for e in report.shortlist}

    def test_rendering(self, small_study):
        results = [flag_all_transients(small_study.scan, small_study.periods)]
        text = format_comparison(results, small_study.ground_truth.domains())
        assert "all-transients" in text
        assert "precision" in text
