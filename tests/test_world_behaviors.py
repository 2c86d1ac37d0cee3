"""Tests for the benign background generators: each behaviour must land in
the pattern class it models, and the benign transients must be pruned by
exactly the heuristic they exercise."""

from datetime import date

import pytest

from repro.core.patterns import classify_dataset
from repro.core.shortlist import Shortlister
from repro.core.types import PatternKind
from repro.world.behaviors import (
    BackgroundMix,
    noisy,
    populate_background,
    stable_s1,
    stable_s2,
    stable_s3,
    stable_s4,
    standard_background_providers,
    transient_low_visibility,
    transient_nonsensitive,
    transient_org_related,
    transient_same_country,
    transient_stale_cert,
    transition_x1,
    transition_x2,
    transition_x3,
)
from repro.world.sim import run_study
from repro.world.world import World
from repro.net.timeline import DateInterval

import random

INTERVAL_START = date(2019, 1, 1)
INTERVAL_END = date(2019, 6, 30)


def classify_behaviour(behaviour, periods_needed=1):
    world = World(seed=11, start=INTERVAL_START, end=INTERVAL_END)
    pool = standard_background_providers(world)
    rng = random.Random(99)
    behaviour(world, "probe.com", pool, rng, DateInterval(INTERVAL_START, INTERVAL_END))
    study = run_study(world)
    classifications = classify_dataset(study.scan, study.periods)
    key = ("probe.com", 0)
    assert key in classifications, "behaviour produced no scan visibility"
    return classifications[key], study


@pytest.mark.parametrize("behaviour", [stable_s1, stable_s2, stable_s3, stable_s4])
def test_stable_behaviours_classify_stable(behaviour):
    classification, _ = classify_behaviour(behaviour)
    assert classification.kind is PatternKind.STABLE, behaviour.__name__


@pytest.mark.parametrize("behaviour", [transition_x1, transition_x2, transition_x3])
def test_transition_behaviours_classify_transition(behaviour):
    classification, _ = classify_behaviour(behaviour)
    assert classification.kind is PatternKind.TRANSITION, behaviour.__name__


def test_noisy_behaviour_classifies_noisy():
    classification, _ = classify_behaviour(noisy)
    assert classification.kind is PatternKind.NOISY


@pytest.mark.parametrize(
    "behaviour,expected_reason",
    [
        (transient_org_related, "org-related-asn"),
        (transient_same_country, "same-country"),
        (transient_low_visibility, "low-visibility"),
        (transient_nonsensitive, "no-sensitive-name"),
    ],
)
def test_benign_transients_pruned_by_their_heuristic(behaviour, expected_reason):
    classification, study = classify_behaviour(behaviour)
    classifications = {("probe.com", 0): classification}
    entries, decisions = Shortlister(study.as2org, study.scan).evaluate(classifications)
    assert entries == []
    assert any(d.reason == expected_reason for d in decisions), [
        d.reason for d in decisions
    ]


def test_stale_cert_transient_survives_shortlist_dies_in_inspection():
    """The 8143 -> 1256 funnel: shortlisted, then found benign."""
    from repro.core.inspection import Inspector

    classification, study = classify_behaviour(transient_stale_cert)
    assert classification.kind is PatternKind.TRANSIENT
    entries, _ = Shortlister(study.as2org, study.scan).evaluate({("probe.com", 0): classification})
    assert len(entries) == 1  # sensitive name + cross-AS + cross-country
    inspector = Inspector(study.pdns, study.crtsh)
    result = inspector.inspect(entries[0])
    from repro.core.types import Verdict

    assert result.verdict is Verdict.BENIGN
    assert result.evidence.stale_certificate


class TestPopulation:
    def test_mix_counts(self):
        mix = BackgroundMix()
        counts = mix.counts(10_000)
        # The paper's four fractions sum to 99.93%; stable absorbs the rest.
        assert counts["stable"] == 9657
        assert counts["transition"] == 295
        assert counts["transient"] == 13
        assert counts["noisy"] == 35

    def test_population_fraction_shape(self):
        """A pure background population reproduces the paper's Section 4.2
        fractions to within classification noise."""
        world = World(seed=21, start=INTERVAL_START, end=INTERVAL_END)
        assigned = populate_background(
            world, 400, DateInterval(INTERVAL_START, INTERVAL_END)
        )
        assert len(assigned) == 400
        study = run_study(world)
        report = study.run_pipeline()
        from repro.analysis.funnel import classification_fractions

        fractions = classification_fractions(report)
        assert fractions.stable >= 0.93
        assert fractions.transient <= 0.03
        # Nothing in a benign world may be called hijacked or targeted.
        assert report.findings == []
