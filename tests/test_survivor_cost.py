"""Structural cost test: the parent's work follows the funnel's
survivors, not the population.

Two all-active scale worlds ten times apart, 10^3 and 10^4 domains,
every domain holding a deployment map, get the same three planted
transients.  Each size runs serial with a stage cache: a cold hunt, a
warm hunt from the cache it filled, then a seeded epoch whose
:func:`make_delta` touches the same three domains at both sizes.  The
decoders :mod:`repro.core.pipeline` calls are wrapped to count the
(domain, period) maps decoded, and the classifier the epoch's seeding
and the classify kernel call is wrapped to count the domains
classified.

* A cold hunt decodes exactly the transient maps: the shortlist reads
  them, and everything else it screens comes from the codes.
* A warm hunt decodes exactly the shortlist's keys.
* A seeded epoch classifies only its dirty domains, and its classify
  counters partition the population.

Every count is the same at both sizes, and every op's report encodes to
a cold serial run's bytes.
"""

from __future__ import annotations

from datetime import date

from repro.cache import StageCache
from repro.core import patterns, pipeline
from repro.core.pipeline import HijackPipeline
from repro.core.types import PatternKind
from repro.epochs import EpochDelta, engine
from repro.exec import SerialBackend
from repro.io.golden import encode_report
from repro.tls.certificate import Certificate
from repro.world.scale import make_delta, scale_world

SIZES = (1_000, 10_000)
#: Active domains holding the planted transients; ``make_delta`` epoch 1
#: touches other domains at both sizes.
PLANTED = tuple(f"active-{i:05d}.example.com" for i in (10, 180, 500))
#: Domains the epoch's delta touches at either size.
TOUCHED = 3


def _with_transients(world):
    """``world`` plus, in each :data:`PLANTED` domain, two mid-period rows
    on a new IP, AS and country under a certificate for a sensitive
    name: transients the shortlist keeps."""
    days = [d for d in world.scan.scan_dates if date(2019, 3, 1) <= d < date(2019, 3, 15)]
    rows = []
    for k, domain in enumerate(PLANTED):
        name = f"mail.{domain}"
        cert = Certificate(
            serial=99_001 + k,
            common_name=name,
            sans=(name,),
            issuer="Planted CA",
            not_before=date(2019, 1, 1),
            not_after=date(2020, 12, 31),
            crtsh_id=299_000_001 + k,
        )
        rows.extend(
            (day.toordinal(), f"192.0.2.{77 + k}", 65099, cert, "RU", (443,), (name,),
             (domain,), True, True)
            for day in days
        )
    return engine.merge_inputs(world, EpochDelta(epoch=0, scan_rows=tuple(rows)))


class _Counts:
    """Maps decoded and domains classified while installed."""

    def __init__(self, monkeypatch) -> None:
        self.decoded: list[tuple[str, int]] = []
        self.decoded_classifications: list[tuple[str, int]] = []
        self.classified: list[int] = []
        decode_maps = pipeline.decode_domain_maps
        decode_classification = pipeline.decode_classification

        def counted_decode(domain, encoded, dataset, periods):
            self.decoded.extend((domain, period_index) for period_index, _ in encoded)
            return decode_maps(domain, encoded, dataset, periods)

        def counted_decode_classification(map_, encoded):
            self.decoded_classifications.append((map_.domain, map_.period.index))
            return decode_classification(map_, encoded)

        classify = patterns.classify_domain_encoded

        def counted_classify(encoded_maps, date_ords, config=None):
            self.classified.append(1)
            return classify(encoded_maps, date_ords, config)

        monkeypatch.setattr(pipeline, "decode_domain_maps", counted_decode)
        monkeypatch.setattr(pipeline, "decode_classification", counted_decode_classification)
        monkeypatch.setattr(patterns, "classify_domain_encoded", counted_classify)
        monkeypatch.setattr(engine, "classify_domain_encoded", counted_classify)

    def take(self) -> tuple[list[tuple[str, int]], int]:
        """The maps decoded and the domains classified since the last
        take; every decoded map's classification was decoded with it."""
        decoded, classified = self.decoded[:], len(self.classified)
        assert self.decoded_classifications == decoded
        self.decoded.clear()
        self.decoded_classifications.clear()
        self.classified.clear()
        return decoded, classified


def _serial(inputs) -> str:
    return encode_report(HijackPipeline(inputs).run(SerialBackend()))


def test_parent_work_is_survivor_sized(monkeypatch, tmp_path):
    counts = _Counts(monkeypatch)
    seen = {}
    for n in SIZES:
        inputs = _with_transients(scale_world(n, n_active=n))
        cache = StageCache(tmp_path / f"cache-{n}")
        expected = _serial(inputs)
        counts.take()

        report, _ = HijackPipeline(inputs).profile(SerialBackend(), cache=cache)
        decoded, _ = counts.take()
        transients = [
            key for key, kind in report.classifications.kinds().items()
            if kind is PatternKind.TRANSIENT
        ]
        assert report.funnel.n_maps == n
        assert sorted(domain for domain, _ in transients) == sorted(PLANTED)
        assert sorted(decoded) == sorted(transients), n
        assert encode_report(report) == expected
        counts.take()

        report, metrics = HijackPipeline(inputs).profile(SerialBackend(), cache=cache)
        decoded, classified = counts.take()
        assert all(stage.cached for stage in metrics.stages)
        assert sorted(decoded) == sorted((e.domain, e.period_index) for e in report.shortlist)
        assert classified == 0
        assert encode_report(report) == expected
        counts.take()

        delta = make_delta(inputs, seed=0, fraction=TOUCHED / n, epoch=1)
        report, metrics, dirty = engine.run_epoch(
            inputs, delta, backend=SerialBackend(), cache=cache
        )
        decoded, classified = counts.take()
        epoch, counters = metrics.epoch, metrics.metrics["counters"]
        assert epoch["seeded"] and epoch["domains"] == n
        assert len(dirty.scan_direct) == TOUCHED
        assert classified == epoch["domains_dirty"] == counters["classify.domains_recomputed"]
        assert counters["classify.domains_reused"] + counters["classify.domains_recomputed"] == n
        assert {s.name: s.cached for s in metrics.stages}["classify"]
        assert encode_report(report) == _serial(engine.merge_inputs(inputs, delta))
        seen[n] = (len(transients), len(report.shortlist), len(decoded), classified)

    small, large = (seen[n] for n in SIZES)
    assert small == large == (len(PLANTED), len(PLANTED), len(PLANTED), TOUCHED), seen
