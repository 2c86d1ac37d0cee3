"""Adapters: the existing methods as registered detectors.

The paper's retroactive funnel and the Houser-style logistic-regression
baseline predate the detector protocol; these adapters wrap them so
they compete in the arena as peers — no privileged code path, the same
``DetectorFindings`` contract, the same scoring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.types import Verdict
from repro.detect.base import Detector, DetectorFindings, DomainVerdict
from repro.obs.provenance import EvidenceRef

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineInputs
    from repro.exec.backends import ExecutionBackend


class FunnelDetector(Detector):
    """The paper's five-step retroactive funnel, behind the protocol.

    Runs the full :class:`repro.core.pipeline.HijackPipeline` over the
    bundle (fault-free: the arena degrades inputs *before* detectors see
    them, so every method faces the same data) and converts each
    :class:`DomainFinding` into a verdict carrying the finding's whole
    provenance trail as flattened evidence refs.
    """

    name = "funnel"
    inputs = ("scan", "pdns", "ct", "as2org", "routing", "geo")

    def __init__(self, config=None) -> None:
        self._config = config

    def detect(
        self, bundle: PipelineInputs, backend: ExecutionBackend | None = None
    ) -> DetectorFindings:
        from repro.core.pipeline import HijackPipeline

        report = HijackPipeline(bundle, config=self._config).run(backend)
        verdicts = tuple(
            DomainVerdict(
                domain=finding.domain,
                verdict=finding.verdict,
                score=1.0,
                rationale=(
                    f"funnel {finding.detection.value}"
                    if finding.detection
                    else "funnel"
                ),
                evidence=tuple(
                    ref
                    for transition in finding.provenance
                    for ref in transition.evidence
                ),
            )
            for finding in report.findings
        )
        funnel = report.funnel
        return DetectorFindings(
            detector=self.name,
            verdicts=verdicts,
            stats=(
                ("maps", funnel.n_maps),
                ("transient", funnel.n_transient),
                ("shortlisted", funnel.n_shortlisted),
                ("hijacked", funnel.n_hijacked),
                ("targeted", funnel.n_targeted),
            ),
        )


class LogRegDetector(Detector):
    """The Houser-style pDNS/scan-feature classifier, behind the protocol.

    ``fit`` trains the numpy logistic regression on the study's ground
    truth (positives are attack periods, negatives sampled benign maps);
    ``detect`` then scores every (domain, period) of the *bundle* —
    which may be a different, degraded, or restricted view — and flags
    domains crossing the decision threshold in any period.
    """

    name = "logreg"
    inputs = ("scan", "pdns")
    requires_fit = True

    def __init__(self, threshold: float = 0.5, seed: int = 11) -> None:
        self._threshold = threshold
        self._seed = seed
        self._model = None

    def fit(self, study) -> None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            raise ImportError(
                "the logreg detector needs numpy: pip install 'repro[baseline]'"
            ) from None
        from repro.baseline.model import train_baseline

        trained = train_baseline(
            study.scan, study.pdns, study.periods, study.ground_truth,
            seed=self._seed,
        )
        self._model = trained.model

    def detect(
        self, bundle: PipelineInputs, backend: ExecutionBackend | None = None
    ) -> DetectorFindings:
        import numpy as np

        from repro.baseline.features import domain_features

        if self._model is None:
            raise RuntimeError(
                "LogRegDetector.detect called before fit(); train it on a "
                "study first (the arena does this automatically)"
            )
        verdicts: list[DomainVerdict] = []
        n_scored = 0
        for domain in sorted(bundle.scan.domains()):
            best_score = 0.0
            best_period = None
            for period in bundle.periods:
                if not bundle.scan.scan_dates_in(period):
                    continue
                features = np.array(
                    [domain_features(domain, bundle.scan, bundle.pdns, period)]
                )
                probability = float(self._model.predict_proba(features)[0])
                n_scored += 1
                if probability > best_score:
                    best_score = probability
                    best_period = period
            if best_period is not None and best_score >= self._threshold:
                verdicts.append(
                    DomainVerdict(
                        domain=domain,
                        verdict=Verdict.HIJACKED,
                        score=round(best_score, 6),
                        rationale=(
                            f"classifier probability {best_score:.3f} >= "
                            f"{self._threshold} in period {best_period.index}"
                        ),
                        evidence=(
                            EvidenceRef(
                                kind="rule",
                                ref="logreg-threshold",
                                detail=(
                                    f"p={best_score:.3f} "
                                    f"period={best_period.label}"
                                ),
                            ),
                        ),
                    )
                )
        return DetectorFindings(
            detector=self.name,
            verdicts=tuple(verdicts),
            stats=(
                ("domains", len(bundle.scan.domains())),
                ("pairs_scored", n_scored),
                ("flagged", len(verdicts)),
            ),
        )


__all__ = ["FunnelDetector", "LogRegDetector"]
