"""The benchmark's workloads: world, backend, epoch delta and oracle.

Each workload is one input scale driven through the same op cycle —
``cold`` (hunt into an empty stage cache), ``warm`` (hunt from the cache
the cold op filled) and ``epoch`` (apply one fresh 1% delta onto the
banked base).  Why each scale is in the benchmark is recorded in
``BENCHMARK.json`` and ``METRICS.md``; this module says how each one is
built and what its reports must equal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import timedelta


@dataclass(frozen=True)
class Workload:
    name: str
    #: Domain population of a scale world; None for the paper world.
    n_domains: int | None
    default_seed: int
    #: Cold and warm hunts use the sharded process pool (2 workers).
    pool: bool


WORKLOADS = {
    "paper": Workload("paper", None, default_seed=7, pool=False),
    "shard-300k": Workload("shard-300k", 300_000, default_seed=0, pool=True),
}

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 2
#: Background domains of the paper world: the golden reports' setting.
PAPER_BACKGROUND = 40
#: Paper seeds with a pinned golden report under ``tests/golden/``.
GOLDEN_SEEDS = (7, 11, 13)
#: Population of the small scale world the scale oracles run on.
ORACLE_DOMAINS = 1_000
#: Workers of the sharded pool: one per CPU of the 2-CPU machine the
#: bounds were set on.
POOL_JOBS = 2


def build_world(workload: Workload, seed: int):
    """The workload's input bundle, in RAM."""
    if workload.n_domains is None:
        from repro.core.pipeline import PipelineInputs
        from repro.world.scenarios import paper_study

        return PipelineInputs.from_study(
            paper_study(seed=seed, n_background=PAPER_BACKGROUND)
        )
    from repro.world.scale import scale_world

    return scale_world(workload.n_domains, seed=seed)


def hunt_backend(workload: Workload):
    """The backend of the cold and warm hunts."""
    from repro.exec import ProcessPoolBackend, SerialBackend

    if workload.pool:
        return ProcessPoolBackend(jobs=POOL_JOBS, partition="shard", shard_cache=True)
    return SerialBackend()


def epoch_delta(workload: Workload, inputs, seed: int, epoch: int):
    """Epoch ``epoch``'s 1% delta over ``inputs``."""
    if workload.n_domains is None:
        return paper_delta(inputs, seed=seed, epoch=epoch)
    from repro.world.scale import make_delta

    return make_delta(inputs, seed=seed, epoch=epoch)


def paper_delta(inputs, *, seed: int, epoch: int):
    """A week of passive DNS landing on 1% of a paper world's domains.

    ``make_delta`` only knows scale worlds, so the paper world gets the
    epoch its sensors would deliver: every pDNS row of the picked domains
    seen once more, ``epoch`` weeks after the latest observation.  No
    scan date is added, so the engine seeds the deployment stage from
    the base products and re-runs the funnel tail over the merged pDNS.
    """
    from repro.epochs import EpochDelta

    records = sorted(
        inputs.pdns.all_records(), key=lambda r: (r.rrname, r.rtype.value, r.rdata)
    )
    by_domain: dict[str, list] = {}
    for record in records:
        domain = _registered(record.rrname)
        if domain is not None:
            by_domain.setdefault(domain, []).append(record)
    domains = sorted(by_domain)
    n_pick = max(1, len(domains) // 100)
    offset = (seed * 7 + epoch * 3) % len(domains)
    picked = sorted(
        {domains[(offset + k * len(domains) // n_pick) % len(domains)] for k in range(n_pick)}
    )
    day = max(record.last_seen for record in records) + timedelta(days=7 * epoch)
    return EpochDelta(
        epoch=epoch,
        label=f"bench-pdns-seed{seed}-epoch{epoch}",
        pdns_observations=tuple(
            (r.rrname, r.rtype, r.rdata, day) for d in picked for r in by_domain[d]
        ),
    )


def _registered(name: str) -> str | None:
    from repro.net.names import registered_domain

    try:
        return registered_domain(name.lower().removeprefix("*."))
    except ValueError:
        return None


def delta_domains(delta) -> set[str]:
    """The domains a delta was generated for: the bases of its scan rows,
    or, for a pDNS-only delta, the registered domains it re-observes."""
    if delta.scan_rows:
        return {base for row in delta.scan_rows for base in row[7]}
    return {_registered(rrname) for rrname, *_ in delta.pdns_observations} - {None}


def report_digest(text: str) -> str:
    """The digest ops and oracles compare: SHA-256 of the report bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serial_report(inputs) -> str:
    """The encoded report of an uncached serial run over ``inputs``."""
    from repro.core.pipeline import HijackPipeline
    from repro.exec import SerialBackend
    from repro.io.golden import encode_report

    return encode_report(HijackPipeline(inputs).run(SerialBackend()))


def oracle_digests(workload: Workload, seed: int, epochs, paper_inputs, golden_dir):
    """Expected report digests: ``"hunt"`` and ``"epoch-<k>"`` per epoch.

    Paper hunts read the pinned golden where one exists; everything else
    is an uncached serial run in RAM — over the paper world itself, or
    over a 1,000-domain scale world, whose report equals the large
    one's because background domains never reach a deployment map.
    """
    from repro.epochs import merge_inputs

    if workload.n_domains is None:
        inputs = paper_inputs
        golden = golden_dir / f"paper_seed{seed}.json"
        hunt = golden.read_text() if seed in GOLDEN_SEEDS else serial_report(inputs)
    else:
        from repro.world.scale import scale_world

        inputs = scale_world(ORACLE_DOMAINS, seed=seed)
        hunt = serial_report(inputs)
    digests = {"hunt": report_digest(hunt)}
    for k in epochs:
        delta = epoch_delta(workload, inputs, seed, k)
        digests[f"epoch-{k}"] = report_digest(serial_report(merge_inputs(inputs, delta)))
    return digests
