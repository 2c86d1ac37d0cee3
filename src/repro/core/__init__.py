"""The paper's five-step methodology (Figure 1).

Step 1 (`deployment`): build per-domain, per-six-month-period deployment
maps from annotated scan records — deployment groups are the observable
infrastructure of one ASN on one scan date; deployments are their
longitudinal clusters.

Step 2 (`patterns`): classify each map as stable (S1-S4), transition
(X1-X3), transient (T1/T2), or noisy.

Step 3 (`shortlist`): prune transients that are organizationally
related, same-country, low-visibility, or chronically recurring; keep
those securing sensitive subdomains or that are truly anomalous.

Step 4 (`inspection`): corroborate survivors against passive DNS and CT
logs, codifying the paper's manual rules into deterministic verdicts
(HIJACKED via T1/T2/T1*, TARGETED, or inconclusive).

Step 5 (`pivot`): use confirmed attacker IPs and nameservers to find
victims invisible to deployment maps (P-IP / P-NS).

`pipeline` orchestrates all five steps and reports a funnel mirroring
the paper's Section 4 numbers.
"""

from repro.core.deployment import (
    Deployment,
    DeploymentGroup,
    DeploymentMap,
    build_domain_maps,
)
from repro.core.inspection import InspectionConfig, Inspector
from repro.core.patterns import Classification, PatternConfig, classify_dataset
from repro.core.pipeline import (
    HijackPipeline,
    PipelineConfig,
    PipelineInputs,
    PipelineReport,
)
from repro.core.pivot import PivotAnalyzer
from repro.core.reactive import ReactiveAlert, ReactiveMonitor
from repro.core.render import render_classification, render_deployment_map
from repro.core.shortlist import ShortlistConfig, ShortlistEntry, Shortlister
from repro.core.types import DetectionType, PatternKind, SubPattern, Verdict

__all__ = [
    "Deployment",
    "DeploymentGroup",
    "DeploymentMap",
    "build_domain_maps",
    "InspectionConfig",
    "Inspector",
    "Classification",
    "PatternConfig",
    "classify_dataset",
    "HijackPipeline",
    "PipelineConfig",
    "PipelineInputs",
    "PipelineReport",
    "PivotAnalyzer",
    "ReactiveAlert",
    "ReactiveMonitor",
    "render_classification",
    "render_deployment_map",
    "ShortlistConfig",
    "ShortlistEntry",
    "Shortlister",
    "DetectionType",
    "PatternKind",
    "SubPattern",
    "Verdict",
]
