"""Running a world into its study datasets.

``StudyDatasets`` bundles everything a third-party analyst would have:
the annotated weekly scan dataset, the passive-DNS database, the crt.sh
search service, the IP-intelligence tables, and — for evaluation only —
the ground-truth ledger.  ``run_study`` executes the scan engine over
the full calendar and drives the pDNS sensor network through the
observation plan (honoring per-domain blackouts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date

from repro.core.pipeline import HijackPipeline, PipelineConfig, PipelineReport
from repro.exec.backends import ExecutionBackend
from repro.exec.metrics import RunMetrics
from repro.ct.crtsh import CrtShService
from repro.ct.log import CTLog
from repro.ipintel.as2org import AS2Org
from repro.ipintel.geo import GeoDB
from repro.ipintel.pfx2as import RoutingTable
from repro.net.timeline import Period
from repro.pdns.database import PassiveDNSDatabase
from repro.pdns.sensor import SensorNetwork
from repro.scan.annotate import Annotator
from repro.scan.dataset import ScanDataset
from repro.scan.engine import ScanEngine
from repro.tls.revocation import RevocationRegistry
from repro.tls.truststore import TrustStore
from repro.world.groundtruth import GroundTruthLedger
from repro.world.world import World


@dataclass
class StudyDatasets:
    """The analyst's view of one simulated study."""

    scan: ScanDataset
    pdns: PassiveDNSDatabase
    crtsh: CrtShService
    ct_log: CTLog
    routing: RoutingTable
    geo: GeoDB
    as2org: AS2Org
    trust: TrustStore
    revocations: RevocationRegistry
    scan_dates: tuple[date, ...]
    periods: tuple[Period, ...]
    ground_truth: GroundTruthLedger
    world: World

    def pipeline(
        self, config: PipelineConfig | None = None, faults=None
    ) -> HijackPipeline:
        """Build the detection pipeline over these datasets.

        ``faults`` takes a :class:`repro.faults.FaultPlan` (or a spec /
        spec string, bound to seed 0) to degrade the run.
        """
        return HijackPipeline.from_study(self, config=config, faults=faults)

    def run_pipeline(
        self,
        config: PipelineConfig | None = None,
        backend: ExecutionBackend | None = None,
        faults=None,
        cache=None,
    ) -> PipelineReport:
        return self.pipeline(config, faults=faults).run(backend, cache=cache)

    def profile_pipeline(
        self,
        config: PipelineConfig | None = None,
        backend: ExecutionBackend | None = None,
        faults=None,
        cache=None,
        events=None,
        memory: bool = False,
        ledger=None,
    ) -> tuple[PipelineReport, RunMetrics]:
        """Run the pipeline and return its report plus the run manifest.

        ``cache`` takes a :class:`repro.cache.StageCache` to satisfy
        repeat runs from disk; ``events`` an :class:`repro.obs.EventSink`
        observing the run (a :class:`repro.obs.Tracer` collects its
        hierarchical span tree); ``ledger`` a :class:`repro.obs.RunLedger`
        to record the run in; ``memory=True`` traces per-stage
        allocations.
        """
        return self.pipeline(config, faults=faults).profile(
            backend, cache=cache, events=events, memory=memory, ledger=ledger,
        )


def run_study(
    world: World,
    pdns_coverage: float = 0.9,
    pdns_queries_per_day: int = 4,
    port_loss: float = 0.02,
    degraded_sensors: bool = False,
) -> StudyDatasets:
    """Materialize every dataset from the world's current state.

    ``degraded_sensors=True`` applies the coverage probability even to
    densely-observed names, modelling a pDNS vendor with weak vantage
    into the victims' networks (the paper's §4.6 coverage limitation).
    """
    engine = ScanEngine(world.hosts, seed=world.seed, port_loss=port_loss)
    raw = engine.run(world.scan_dates)
    annotator = Annotator(world.routing, world.geo, world.trust)
    # Columnar fast path: annotation appends straight into the scan
    # table's typed arrays; record objects stay lazy until asked for.
    scan = annotator.annotate_dataset(raw, world.scan_dates)

    pdns = PassiveDNSDatabase()
    sensor = SensorNetwork(
        world.resolver,
        random.Random(world.seed ^ 0x5E25),
        coverage=pdns_coverage,
        queries_per_day=pdns_queries_per_day,
        dense_ignores_coverage=not degraded_sensors,
    )
    for fqdn in world.plan.fqdns():
        for day in world.plan.days_for(fqdn):
            if world.is_blacked_out(fqdn, day):
                continue
            sensor.observe_day(pdns, fqdn, day, dense=world.plan.is_dense(fqdn, day))

    return StudyDatasets(
        scan=scan,
        pdns=pdns,
        crtsh=world.crtsh,
        ct_log=world.ct_log,
        routing=world.routing,
        geo=world.geo,
        as2org=world.as2org,
        trust=world.trust,
        revocations=world.revocations,
        scan_dates=world.scan_dates,
        periods=world.periods,
        ground_truth=world.ground_truth,
        world=world,
    )
