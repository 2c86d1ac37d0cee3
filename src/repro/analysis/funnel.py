"""Section 4.2-4.4 — population fractions and the shortlist funnel.

The paper's measured population: of 22M deployment maps, 96.5% are
stable, 2.95% transitions, 0.13% transients, and 0.35% too noisy to
classify; heuristics then shortlist 8143 domains, of which 1256 are
worth manual examination.  On synthetic data the absolute counts are
scenario parameters, so benches compare *fractions* and funnel shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import PipelineReport

#: The paper's population fractions over deployment maps.
PAPER_FRACTIONS = {
    "stable": 0.965,
    "transition": 0.0295,
    "transient": 0.0013,
    "noisy": 0.0035,
}


@dataclass(frozen=True, slots=True)
class ClassificationFractions:
    n_maps: int
    stable: float
    transition: float
    transient: float
    noisy: float

    def as_dict(self) -> dict[str, float]:
        return {
            "stable": self.stable,
            "transition": self.transition,
            "transient": self.transient,
            "noisy": self.noisy,
        }


def classification_fractions(report: PipelineReport) -> ClassificationFractions:
    """Measured population fractions over this run's deployment maps,
    read off the funnel's kind counts."""
    funnel = report.funnel
    n_maps = funnel.n_maps
    if n_maps == 0:
        return ClassificationFractions(0, 0.0, 0.0, 0.0, 0.0)
    return ClassificationFractions(
        n_maps=n_maps,
        stable=funnel.n_stable / n_maps,
        transition=funnel.n_transition / n_maps,
        transient=funnel.n_transient / n_maps,
        noisy=funnel.n_noisy / n_maps,
    )


def funnel_rows(report: PipelineReport) -> list[tuple[str, int]]:
    """The stage-by-stage funnel as (stage, count) rows."""
    funnel = report.funnel
    return [
        ("deployment maps", funnel.n_maps),
        ("transient maps", funnel.n_transient),
        ("shortlisted", funnel.n_shortlisted),
        ("truly anomalous", funnel.n_truly_anomalous),
        ("worth examining", funnel.n_worth_examining),
        ("hijacked (direct)", funnel.n_t1_hijacked + funnel.n_t2_hijacked + funnel.n_t1_star),
        ("hijacked (pivot)", funnel.n_pivot_ip + funnel.n_pivot_ns),
        ("targeted", funnel.n_targeted),
    ]
