"""Step 2 — classifying deployment maps (Section 4.2, Figures 3-5).

The classifier decides, per deployment, whether it is the *stable*
background (present from the start of the domain's visibility and still
present at the end), a *transition* (appears mid-period and persists —
a migration or expansion), or a *transient* (appears and disappears
within the three-month threshold).  The map's top-level kind follows:
any transient makes it TRANSIENT; otherwise any transition makes it
TRANSITION; otherwise STABLE — unless no deployment qualifies as stable
at all, in which case the map is NOISY ("domains that move deployments
continually and have no stable deployment").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deployment import (
    Deployment,
    DeploymentMap,
    EncodedDomainMaps,
    decode_domain_maps,
    domain_map_encoder,
)
from repro.core.types import PatternKind, SubPattern
from repro.net.timeline import TRANSIENT_MAX_DAYS, Period
from repro.scan.dataset import ScanDataset


@dataclass(frozen=True, slots=True)
class PatternConfig:
    """Thresholds of the classifier.

    ``transient_max_days`` is the paper's three-month threshold ("the
    typical validity period of free certificates").  ``edge_scans``
    controls how close to the domain's first/last visible scan a
    deployment must reach to count as spanning the period's edge.
    ``stable_min_scans`` keeps a two-sample blip from qualifying as the
    stable background.
    """

    transient_max_days: int = TRANSIENT_MAX_DAYS
    edge_scans: int = 2
    stable_min_scans: int = 3
    noisy_min_deployments: int = 3


@dataclass
class Classification:
    """The classifier's output for one deployment map."""

    map: DeploymentMap
    kind: PatternKind
    subpatterns: tuple[SubPattern, ...]
    stable: list[Deployment] = field(default_factory=list)
    transitions: list[Deployment] = field(default_factory=list)
    transients: list[Deployment] = field(default_factory=list)

    @property
    def domain(self) -> str:
        return self.map.domain

    @property
    def period_index(self) -> int:
        return self.map.period.index

    def stable_cert_fingerprints(self) -> frozenset[str]:
        if not self.stable:
            return frozenset()
        return frozenset().union(*(d.cert_fingerprints for d in self.stable))

    def stable_asns(self) -> frozenset[int]:
        return frozenset(d.asn for d in self.stable)

    def stable_countries(self) -> frozenset[str]:
        if not self.stable:
            return frozenset()
        return frozenset().union(*(d.countries for d in self.stable))


def transient_subpattern_of(classification: Classification, transient: Deployment) -> SubPattern:
    """T1 or T2 for a specific transient deployment within a map."""
    stable_certs = classification.stable_cert_fingerprints()
    if transient.cert_fingerprints and transient.cert_fingerprints <= stable_certs:
        return SubPattern.T2
    return SubPattern.T1


# -- the encoded (columnar) classifier ----------------------------------------

#: Canonical code tables for the encoded wire form: codes index these
#: tuples, so they are a pure function of the enum declaration order and
#: mean the same thing in every process and cache entry.
ENCODED_KINDS: tuple[PatternKind, ...] = tuple(PatternKind)
ENCODED_SUBPATTERNS: tuple[SubPattern, ...] = tuple(SubPattern)
KIND_CODE = {kind: code for code, kind in enumerate(ENCODED_KINDS)}
SUBPATTERN_CODE = {sub: code for code, sub in enumerate(ENCODED_SUBPATTERNS)}

#: One encoded classification: ``(kind_code, subpattern_codes,
#: stable_positions, transition_positions, transient_positions)`` —
#: positions index the encoded (equivalently, decoded) deployment list.
EncodedClassification = tuple[
    int, tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]
]


def classify_encoded(
    enc_deployments, date_ords: tuple[int, ...], config: PatternConfig | None = None
) -> EncodedClassification:
    """Classify one period's encoded deployments in interned-id space.

    Works on the compact :data:`~repro.core.deployment.EncodedDeployment`
    wire form, not the decoded object map: scan-calendar indices stand
    in for dates (the mapping is monotone, so every edge comparison
    agrees), pool ids stand in for ASN/certificate/country values (the
    interning bijection preserves every equality and subset test), and
    ``date_ords`` — the period's scan-date ordinals — supplies the one
    genuinely calendar quantity, the transient span in days.  The wire
    form doubles as the classification stage's cache product;
    :func:`decode_classification` materializes the object view against
    the decoded map.
    """
    config = config or PatternConfig()
    # Per-deployment digests: (first_index, last_index, scan_count,
    # cert-id set, asn_id); runs are date-ordered so first/last are the
    # ends of the first/last run.
    digests = []
    visible_set: set[int] = set()
    for asn_id, runs in enc_deployments:
        first_index = runs[0][0][0]
        last_index = runs[-1][0][-1]
        scan_count = 0
        certs: set[int] = set()
        for indices, _ips, cert_ids, _ccs in runs:
            scan_count += len(indices)
            visible_set.update(indices)
            certs.update(cert_ids)
        digests.append((first_index, last_index, scan_count, certs, asn_id))
    visible = sorted(visible_set)
    if not visible:
        return (KIND_CODE[PatternKind.NO_DATA], (), (), (), ())

    start_edge = visible[min(config.edge_scans, len(visible) - 1)]
    end_edge = visible[max(-1 - config.edge_scans, -len(visible))]

    stable: list[int] = []
    transitions: list[int] = []
    transients: list[int] = []
    for pos, (first_index, last_index, scan_count, _certs, _asn_id) in enumerate(digests):
        starts = first_index <= start_edge
        ends = last_index >= end_edge
        if starts and ends and scan_count >= config.stable_min_scans:
            stable.append(pos)
        elif ends and not starts:
            transitions.append(pos)
        elif date_ords[last_index] - date_ords[first_index] + 1 <= config.transient_max_days:
            transients.append(pos)
        else:
            # Long-lived but neither edge-spanning nor short: a transition
            # that also ended (or generally unstable behaviour).
            transitions.append(pos)

    subpatterns: list[int] = []
    if not stable:
        # An X3 migration has no single edge-to-edge deployment: accept
        # exactly one early deployment handing off to one late one.  The
        # paper allows a small overlap (Figure 4's shaded region), so only
        # edge coverage matters — but both halves must be substantial: for
        # a domain visible in a handful of scans, "spans the edges" is
        # trivially true and says nothing.
        if len(enc_deployments) == 2:
            early, late = sorted(range(2), key=lambda p: digests[p][0])
            handoff = (
                digests[early][0] <= start_edge
                and digests[late][1] >= end_edge
                and digests[early][2] >= config.stable_min_scans
                and digests[late][2] >= config.stable_min_scans
                and len(visible) >= 4 * config.stable_min_scans
            )
            if handoff:
                return (
                    KIND_CODE[PatternKind.TRANSITION],
                    (SUBPATTERN_CODE[SubPattern.X3],),
                    (),
                    (early, late),
                    (),
                )
        # Noisy either way: many deployments with no stable background,
        # or a lone short-lived deployment with too little signal.
        return (
            KIND_CODE[PatternKind.NOISY],
            (),
            (),
            (),
            tuple(range(len(enc_deployments))),
        )

    if transients:
        stable_certs: set[int] = set()
        for pos in stable:
            stable_certs.update(digests[pos][3])
        for pos in transients:
            subpatterns.append(
                SUBPATTERN_CODE[SubPattern.T2]
                if digests[pos][3] <= stable_certs
                else SUBPATTERN_CODE[SubPattern.T1]
            )
        return (
            KIND_CODE[PatternKind.TRANSIENT],
            tuple(dict.fromkeys(subpatterns)),
            tuple(stable),
            tuple(transitions),
            tuple(transients),
        )

    if transitions:
        for pos in transitions:
            new_certs = digests[pos][3]
            sub = SubPattern.X3
            for old in stable:
                if digests[old][4] == digests[pos][4]:
                    continue
                if digests[old][1] >= end_edge:
                    sub = (
                        SubPattern.X1
                        if new_certs & digests[old][3]
                        else SubPattern.X2
                    )
                    break
            subpatterns.append(SUBPATTERN_CODE[sub])
        return (
            KIND_CODE[PatternKind.TRANSITION],
            tuple(dict.fromkeys(subpatterns)),
            tuple(stable),
            tuple(transitions),
            (),
        )

    for pos in stable:
        _first, _last, _count, all_certs, _asn_id = digests[pos]
        countries: set[int] = set()
        overlap_scans = 0
        for indices, _ips, cert_ids, cc_ids in enc_deployments[pos][1]:
            countries.update(cc_ids)
            if len(cert_ids) > 1:
                overlap_scans += len(indices)
        multi_country = len(countries) > 1
        if len(all_certs) == 1:
            subpatterns.append(
                SUBPATTERN_CODE[SubPattern.S3 if multi_country else SubPattern.S1]
            )
            continue
        # Multiple certificates: rollover (S2) when consecutive
        # certificates overlap briefly; otherwise an added certificate on
        # the same infrastructure (S4).
        subpatterns.append(
            SUBPATTERN_CODE[SubPattern.S2 if overlap_scans <= 2 else SubPattern.S4]
        )
        if multi_country:
            subpatterns.append(SUBPATTERN_CODE[SubPattern.S3])
    return (
        KIND_CODE[PatternKind.STABLE],
        tuple(dict.fromkeys(subpatterns)),
        tuple(stable),
        (),
        (),
    )


def decode_classification(
    map_: DeploymentMap, encoded: EncodedClassification
) -> Classification:
    """Materialize a :class:`Classification` over the decoded map."""
    kind_code, sub_codes, stable_pos, transition_pos, transient_pos = encoded
    deployments = map_.deployments
    return Classification(
        map=map_,
        kind=ENCODED_KINDS[kind_code],
        subpatterns=tuple(ENCODED_SUBPATTERNS[code] for code in sub_codes),
        stable=[deployments[pos] for pos in stable_pos],
        transitions=[deployments[pos] for pos in transition_pos],
        transients=[deployments[pos] for pos in transient_pos],
    )


def scan_date_ordinals(
    dataset: ScanDataset, periods: tuple[Period, ...]
) -> dict[int, tuple[int, ...]]:
    """``period.index`` -> the period's scan-date ordinals, the calendar
    :func:`classify_encoded` reads transient spans from."""
    return {
        period.index: tuple(d.toordinal() for d in dataset.scan_dates_in(period))
        for period in periods
    }


def classify_domain_encoded(
    encoded_maps: EncodedDomainMaps,
    date_ords: dict[int, tuple[int, ...]],
    config: PatternConfig | None = None,
) -> tuple[tuple[int, EncodedClassification], ...]:
    """Classify one domain's encoded maps: ``(period_index, encoded
    classification)`` per map, in the maps' order."""
    return tuple(
        (period_index, classify_encoded(enc_deployments, date_ords[period_index], config))
        for period_index, enc_deployments in encoded_maps
    )


def classify_dataset(
    dataset: ScanDataset,
    periods: tuple[Period, ...],
    config: PatternConfig | None = None,
) -> dict[tuple[str, int], Classification]:
    """Steps 1–2 over a whole dataset, serially: the deployment and
    classification kernels the pipeline runs, decoded to objects.

    Keys are ``(domain, period.index)``; a (domain, period) with no scan
    visibility has no map and so no classification.
    """
    date_ords = scan_date_ordinals(dataset, periods)
    encode = domain_map_encoder(dataset, periods)
    classifications: dict[tuple[str, int], Classification] = {}
    for index, domain in enumerate(dataset.domains()):
        encoded = encode(index)
        maps = decode_domain_maps(domain, encoded, dataset, periods)
        for (key, map_), (_, enc_classification) in zip(
            maps, classify_domain_encoded(encoded, date_ords, config)
        ):
            classifications[key] = decode_classification(map_, enc_classification)
    return classifications
