"""The detector protocol conformance suite and arena tests.

Every registered detector must honor the :class:`repro.detect.Detector`
contract: declared inputs are *sufficient* (stripping undeclared
channels changes nothing), detection is deterministic across execution
backends, and findings survive the JSON round trip.  The suite is
parametrized over the registry, so third-party detectors registered
before collection are held to the same bar.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import StageCache
from repro.core.pipeline import PipelineInputs
from repro.core.types import Verdict
from repro.detect import (
    INPUT_CHANNELS,
    Detector,
    DetectorFindings,
    DomainVerdict,
    create_detector,
    create_detectors,
    list_detectors,
    register_detector,
    restrict_inputs,
    unregister_detector,
)
from repro.detect.arena import (
    ARENA_SCHEMA,
    arena_summary,
    format_arena,
    run_arena,
    score_sets,
    validate_arena_summary,
    write_arena_summary,
)
from repro.exec import ProcessPoolBackend, SerialBackend

DETECTOR_NAMES = list_detectors()


@pytest.fixture(scope="module")
def fitted(small_study):
    """Every registered detector, fitted on the small study."""
    detectors = {}
    for name in DETECTOR_NAMES:
        detector = create_detector(name)
        if detector.requires_fit:
            detector.fit(small_study)
        detectors[name] = detector
    return detectors


@pytest.fixture(scope="module")
def small_bundle(small_study):
    return PipelineInputs.from_study(small_study)


@pytest.fixture(scope="module")
def small_findings(fitted, small_bundle):
    return {
        name: detector.detect(small_bundle) for name, detector in fitted.items()
    }


# -- protocol conformance (parametrized over the registry) ---------------------


class TestConformance:
    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_declaration_is_well_formed(self, name):
        detector = create_detector(name)
        assert isinstance(detector, Detector)
        assert detector.name == name
        assert detector.inputs, "a detector must declare at least one channel"
        assert set(detector.inputs) <= set(INPUT_CHANNELS)

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_declared_inputs_are_sufficient(
        self, name, fitted, small_bundle, small_findings
    ):
        """Stripping every undeclared channel must not change the verdicts:
        the declaration is the detector's whole data diet."""
        restricted = restrict_inputs(small_bundle, fitted[name].inputs)
        assert fitted[name].detect(restricted) == small_findings[name]

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_deterministic_across_backends(self, name, fitted, small_bundle):
        serial = fitted[name].detect(small_bundle, backend=SerialBackend())
        pool = fitted[name].detect(small_bundle, backend=ProcessPoolBackend(jobs=2))
        assert serial == pool

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_findings_round_trip(self, name, small_findings):
        findings = small_findings[name]
        assert findings.detector == name
        payload = json.loads(json.dumps(findings.to_dict()))
        assert DetectorFindings.from_dict(payload) == findings

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_verdicts_carry_evidence(self, name, small_findings):
        for verdict in small_findings[name].verdicts:
            if verdict.positive:
                assert verdict.evidence, (
                    f"{name} flagged {verdict.domain} without evidence refs"
                )

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_catches_the_small_world_victim(self, name, small_findings):
        """Every shipped detector recovers the one obvious hijack."""
        assert "example-ministry.gr" in small_findings[name].flagged()


def test_logreg_refuses_to_detect_unfitted(small_bundle):
    detector = create_detector("logreg")
    with pytest.raises(RuntimeError, match="fit"):
        detector.detect(small_bundle)


def test_logreg_fit_names_the_extra_without_numpy(small_study, monkeypatch):
    # numpy is the `baseline` extra, not a runtime dependency: without
    # it, fitting says what to install instead of failing mid-import.
    import sys

    monkeypatch.setitem(sys.modules, "numpy", None)
    detector = create_detector("logreg")
    needs = r"^the logreg detector needs numpy: .*repro\[baseline\]"
    with pytest.raises(ImportError, match=needs) as caught:
        detector.fit(small_study)
    assert "\n" not in str(caught.value)


def test_hunt_path_imports_no_numpy():
    import subprocess
    import sys

    code = (
        "import sys, repro.cli, repro.core.pipeline, repro.epochs, repro.exec; "
        "assert 'numpy' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_cli_imports_no_networkx():
    # The package does not declare networkx; attribution clusters by
    # union-find, so the CLI and the analyses it imports run without it.
    import subprocess
    import sys

    code = "import sys, repro.cli, repro.analysis; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_restrict_inputs_rejects_unknown_channel(small_bundle):
    with pytest.raises(ValueError, match="unknown input channels"):
        restrict_inputs(small_bundle, ("scan", "quantum"))


def test_restrict_inputs_empties_undeclared(small_bundle):
    restricted = restrict_inputs(small_bundle, ("scan",))
    assert len(restricted.pdns) == 0
    assert restricted.routing is None
    assert restricted.geo is None
    assert restricted.scan is small_bundle.scan
    assert restricted.periods == small_bundle.periods


# -- verdict / findings types --------------------------------------------------


class TestFindingsTypes:
    def test_positive_verdicts(self):
        assert DomainVerdict("d.example", Verdict.HIJACKED).positive
        assert DomainVerdict("d.example", Verdict.TARGETED).positive
        assert not DomainVerdict("d.example", Verdict.BENIGN).positive
        assert not DomainVerdict("d.example", Verdict.INCONCLUSIVE).positive

    def test_flagged_is_positive_domains_only(self):
        findings = DetectorFindings(
            detector="x",
            verdicts=(
                DomainVerdict("a.example", Verdict.HIJACKED),
                DomainVerdict("b.example", Verdict.BENIGN),
            ),
        )
        assert findings.flagged() == frozenset({"a.example"})
        assert findings.verdict_for("b.example").verdict is Verdict.BENIGN
        assert findings.verdict_for("missing.example") is None


# -- registry ------------------------------------------------------------------


class _ToyDetector(Detector):
    name = "toy"
    inputs = ("scan",)

    def detect(self, bundle, backend=None):
        return DetectorFindings(detector=self.name)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = list_detectors()
        for expected in (
            "cert-anomaly", "funnel", "logreg", "naive-transients", "pdns-churn",
        ):
            assert expected in names
        assert list(names) == sorted(names)

    def test_register_and_unregister(self):
        register_detector("toy", _ToyDetector)
        try:
            assert "toy" in list_detectors()
            assert isinstance(create_detector("toy"), _ToyDetector)
        finally:
            unregister_detector("toy")
        assert "toy" not in list_detectors()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_detector("funnel", _ToyDetector)

    def test_unknown_detector_names_known_ones(self):
        with pytest.raises(KeyError, match="funnel"):
            create_detector("no-such-method")

    def test_create_detectors_preserves_order(self):
        detectors = create_detectors(["logreg", "funnel"])
        assert [d.name for d in detectors] == ["logreg", "funnel"]


# -- scoring -------------------------------------------------------------------


class TestScoring:
    def test_counts(self):
        score = score_sets("m", {"a", "b", "c"}, {"a", "d"})
        assert (score.tp, score.fp, score.fn) == (1, 2, 1)
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1 / 2)
        assert score.f1 == pytest.approx(0.4)

    def test_empty_flagged_has_perfect_precision(self):
        score = score_sets("m", set(), {"a"})
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_empty_truth_has_perfect_recall(self):
        score = score_sets("m", {"a"}, set())
        assert score.recall == 1.0
        assert score.precision == 0.0


# -- the arena -----------------------------------------------------------------


class TestArena:
    @pytest.fixture(scope="class")
    def small_arena(self, small_study):
        return run_arena(packs=["small"], studies={"small": small_study})

    def test_full_grid(self, small_arena):
        assert small_arena.packs == ("small",)
        assert small_arena.detectors == DETECTOR_NAMES
        assert len(small_arena.cells) == len(DETECTOR_NAMES)
        for name in DETECTOR_NAMES:
            assert small_arena.cell("small", name) is not None
        assert small_arena.cell("small", "nope") is None

    def test_scores_match_direct_detection(self, small_arena, small_findings):
        for name in DETECTOR_NAMES:
            arena_flagged = small_arena.findings[("small", name)].flagged()
            assert arena_flagged == small_findings[name].flagged()

    def test_leaderboard_sorted_by_mean_f1(self, small_arena):
        rows = small_arena.leaderboard()
        assert [r["detector"] for r in rows]
        assert all(
            rows[i]["mean_f1"] >= rows[i + 1]["mean_f1"]
            for i in range(len(rows) - 1)
        )

    def test_manifest_records_every_stage(self, small_arena):
        manifest = small_arena.manifests["small"]
        for name in DETECTOR_NAMES:
            stage = manifest.stage(f"detect:{name}")
            assert stage is not None
            assert stage.detail["inputs"] == list(
                create_detector(name).inputs
            )

    def test_summary_validates(self, small_arena):
        payload = arena_summary(small_arena)
        assert payload["schema"] == ARENA_SCHEMA
        assert validate_arena_summary(payload) == []
        # And the validator actually bites on corruption.
        assert validate_arena_summary({"schema": "bogus"})
        broken = json.loads(json.dumps(payload))
        broken["cells"][0]["precision"] = 2.0
        assert any("out of [0, 1]" in p for p in validate_arena_summary(broken))
        dropped = json.loads(json.dumps(payload))
        dropped["cells"] = dropped["cells"][1:]
        assert any("missing cell" in p for p in validate_arena_summary(dropped))

    def test_write_summary_round_trips(self, small_arena, tmp_path):
        path = tmp_path / "BENCH_arena.json"
        payload = write_arena_summary(small_arena, path)
        assert json.loads(path.read_text()) == payload

    def test_format_arena_renders_every_cell(self, small_arena):
        text = format_arena(small_arena)
        for name in DETECTOR_NAMES:
            assert name in text

    def test_cache_warm_run_restores_identical_cells(self, small_study, tmp_path):
        cache = StageCache(tmp_path)
        cold = run_arena(
            packs=["small"], studies={"small": small_study}, cache=cache
        )
        warm = run_arena(
            packs=["small"], studies={"small": small_study}, cache=cache
        )
        assert not any(cell.cached for cell in cold.cells)
        assert all(cell.cached for cell in warm.cells)
        for cold_cell, warm_cell in zip(cold.cells, warm.cells):
            assert warm_cell.score == cold_cell.score
            assert warm_cell.stats == cold_cell.stats

    def test_faults_degrade_single_channel_detectors(self, small_study):
        """Blacking out pDNS must starve the pDNS-only method but leave
        the scan-only ablation untouched — the arena's whole point."""
        result = run_arena(
            packs=["small"],
            detectors=["pdns-churn", "naive-transients"],
            studies={"small": small_study},
            faults="pdns.blackouts=2,pdns.blackout_days=60",
            fault_seed=5,
        )
        assert "pdns.blackouts=2" in result.faults
        churn = result.cell("small", "pdns-churn")
        naive = result.cell("small", "naive-transients")
        assert churn.score.recall == 0.0
        assert naive.score.recall == 1.0

    def test_unknown_pack_raises(self):
        with pytest.raises(KeyError, match="small"):
            run_arena(packs=["not-a-pack"], detectors=["naive-transients"])
