"""Naive rule-based detectors: what the pipeline's stages each buy.

Three strawmen of increasing sophistication, each an ablated prefix of
the real methodology:

* ``flag_all_transients`` — every transient deployment is an incident
  (steps 1-2 only, no shortlist heuristics, no corroboration);
* ``flag_shortlisted`` — steps 1-3 (heuristics, no corroboration);
* the full pipeline is steps 1-5.

Comparing their false-positive counts on the same study makes the
funnel's purpose quantitative: each stage exists to kill a class of
benign lookalikes the previous ones admit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.patterns import PatternConfig, classify_dataset
from repro.core.shortlist import ShortlistConfig, Shortlister
from repro.core.types import PatternKind
from repro.ipintel.as2org import AS2Org
from repro.net.timeline import Period
from repro.scan.dataset import ScanDataset


@dataclass(frozen=True, slots=True)
class NaiveResult:
    method: str
    flagged: frozenset[str]

    def score(self, truth: set[str]) -> tuple[float, float, int]:
        """(precision, recall, false positives) against ground truth."""
        if not self.flagged:
            return 1.0, 0.0, 0
        true_positives = len(self.flagged & truth)
        false_positives = len(self.flagged - truth)
        precision = true_positives / len(self.flagged)
        recall = true_positives / len(truth) if truth else 1.0
        return precision, recall, false_positives


def flag_all_transients(
    scan: ScanDataset,
    periods: tuple[Period, ...],
    config: PatternConfig | None = None,
) -> NaiveResult:
    """Steps 1-2 only: every transient map is an incident."""
    flagged = frozenset(
        domain
        for (domain, _), classification in classify_dataset(scan, periods, config).items()
        if classification.kind is PatternKind.TRANSIENT
    )
    return NaiveResult(method="all-transients", flagged=flagged)


def flag_shortlisted(
    scan: ScanDataset,
    periods: tuple[Period, ...],
    as2org: AS2Org,
    pattern_config: PatternConfig | None = None,
    shortlist_config: ShortlistConfig | None = None,
) -> NaiveResult:
    """Steps 1-3: the shortlist without pDNS/CT corroboration."""
    classifications = classify_dataset(scan, periods, pattern_config)
    entries, _decisions = Shortlister(as2org, scan, shortlist_config).evaluate(
        classifications
    )
    return NaiveResult(
        method="shortlist-only", flagged=frozenset(e.domain for e in entries)
    )


def format_comparison(
    results: list[NaiveResult], truth: set[str]
) -> str:
    header = f"{'method':<18} {'flagged':>8} {'precision':>10} {'recall':>8} {'FP':>5}"
    lines = [header, "-" * len(header)]
    for result in results:
        precision, recall, false_positives = result.score(truth)
        lines.append(
            f"{result.method:<18} {len(result.flagged):>8} {precision:>10.2f} "
            f"{recall:>8.2f} {false_positives:>5}"
        )
    return "\n".join(lines)
