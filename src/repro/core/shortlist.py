"""Step 3 — shortlisting suspicious transient deployments (Section 4.3).

Four pruning checks, then the keep rule:

1. prune when the transient's ASN is organizationally related to any
   stable deployment's ASN (CAIDA AS2Org);
2. prune when the transient geolocates to the same country as any
   stable deployment;
3. prune when visibility is too unstable to judge — the domain misses
   more than 20% of the period's scans, or shows similar transients in
   three or more consecutive periods;
4. keep only transients whose certificate is browser-trusted and
   secures a *sensitive* subdomain — unless the transient is *truly
   anomalous* (the domain was fully stable the entire period before and
   after), which is kept regardless of naming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.deployment import Deployment, DeploymentMap
from repro.core.patterns import (
    ENCODED_SUBPATTERNS,
    SUBPATTERN_CODE,
    Classification,
    transient_subpattern_of,
)
from repro.core.types import PatternKind, SubPattern
from repro.ipintel.as2org import AS2Org
from repro.net.names import is_sensitive_name
from repro.scan.annotate import AnnotatedScanRecord

if TYPE_CHECKING:
    from repro.scan.dataset import ScanDataset


@dataclass(frozen=True, slots=True)
class ShortlistConfig:
    min_presence: float = 0.80
    recurring_periods: int = 3


@dataclass
class ShortlistEntry:
    """One shortlisted (domain, period, transient deployment)."""

    domain: str
    period_index: int
    classification: Classification
    transient: Deployment
    subpattern: SubPattern
    truly_anomalous: bool
    sensitive_names: tuple[str, ...]
    transient_records: list[AnnotatedScanRecord]
    #: Scan-table row ids behind ``transient_records`` (the wire form's
    #: evidence reference).  Excluded from equality: entries compare by
    #: the records themselves.
    transient_rows: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def transient_ips(self) -> frozenset[str]:
        return self.transient.ips

    @property
    def transient_asn(self) -> int:
        return self.transient.asn


@dataclass
class PruneDecision:
    """Why a transient was dropped (kept entries have ``kept=True``)."""

    domain: str
    period_index: int
    kept: bool
    reason: str


class Shortlister:
    """Applies the Section 4.3 heuristics across all classified maps."""

    def __init__(
        self,
        as2org: AS2Org,
        dataset: ScanDataset,
        config: ShortlistConfig | None = None,
    ) -> None:
        self._as2org = as2org
        # Transient evidence rows are bisect slices of the dataset's
        # columnar table, and its known-missing scans (telemetry gaps,
        # injected faults) leave the visibility denominator, so a lost
        # scan is not mistaken for the domain going dark.
        self._dataset = dataset
        self._config = config or ShortlistConfig()
        # Sensitive-name screening memoizes per interned SAN set.
        self._sensitive_memo: dict[int, tuple[str, ...]] = {}

    # -- individual checks ---------------------------------------------------

    def org_related(self, classification: Classification, transient: Deployment) -> bool:
        return any(
            self._as2org.related(transient.asn, stable_asn)
            for stable_asn in classification.stable_asns()
        )

    def same_country(self, classification: Classification, transient: Deployment) -> bool:
        stable_ccs = classification.stable_countries()
        return bool(transient.countries & stable_ccs)

    def low_visibility(self, map_: DeploymentMap) -> bool:
        observed = self._dataset.observed_dates_in(map_.period)
        if not observed:
            return True  # every scan of the period was lost: cannot judge
        return len(map_.visible_dates) / len(observed) < self._config.min_presence

    @staticmethod
    def truly_anomalous(
        domain: str,
        period_index: int,
        classifications: dict[tuple[str, int], Classification],
    ) -> bool:
        """Stable for the full six-month period before AND after."""
        before = classifications.get((domain, period_index - 1))
        after = classifications.get((domain, period_index + 1))
        return (
            before is not None
            and after is not None
            and before.kind is PatternKind.STABLE
            and after.kind is PatternKind.STABLE
        )

    # -- the full shortlist --------------------------------------------------

    def _transient_rows(
        self, classification: Classification, transient: Deployment
    ) -> tuple[int, ...]:
        """The scan-table row ids behind a transient: the domain's rows in
        the transient's scan dates, ASN and IPs, in (date, ip)-sorted CSR
        order."""
        table = self._dataset.table
        map_ = classification.map
        lo, hi = table.period_slice(map_.domain, map_.period.start, map_.period.end)
        wanted = {d.toordinal() for d in transient.dates()}
        asn = transient.asn
        ips = transient.ips
        csr_rows, csr_dates = table.csr_rows, table.csr_dates
        asn_id, asns = table.asn_id, table.asns
        ip_id, ip_pool = table.ip_id, table.ips
        rows: list[int] = []
        for i in range(lo, hi):
            if csr_dates[i] not in wanted:
                continue
            row = csr_rows[i]
            if asns[asn_id[row]] != asn or ip_pool[ip_id[row]] not in ips:
                continue
            rows.append(row)
        return tuple(rows)

    def _sensitive_from_rows(self, rows: tuple[int, ...]) -> tuple[str, ...]:
        """Sensitive names on the rows' browser-trusted certificates, in
        first-seen order, memoized per interned SAN-set id (the screen is
        a pure name predicate)."""
        table = self._dataset.table
        names: list[str] = []
        names_id, name_sets = table.names_id, table.name_sets
        for row in rows:
            if not table.trusted(row):
                continue
            ident = names_id[row]
            sensitive = self._sensitive_memo.get(ident)
            if sensitive is None:
                sensitive = tuple(
                    n for n in name_sets[ident] if is_sensitive_name(n)
                )
                self._sensitive_memo[ident] = sensitive
            names.extend(sensitive)
        return tuple(dict.fromkeys(names))

    def evaluate(
        self,
        classifications: dict[tuple[str, int], Classification],
    ) -> tuple[list[ShortlistEntry], list[PruneDecision]]:
        """Shortlist every transient deployment across all maps."""
        entries: list[ShortlistEntry] = []
        decisions: list[PruneDecision] = []
        table = self._dataset.table

        # One pass indexes every domain's transient periods, so the
        # recurring-transient check never rescans the whole table.
        transient_periods: dict[str, list[int]] = {}
        for (domain, period_index), classification in classifications.items():
            if classification.kind is PatternKind.TRANSIENT:
                transient_periods.setdefault(domain, []).append(period_index)

        def chronic(domain: str) -> bool:
            indices = sorted(transient_periods.get(domain, ()))
            run = best = 1 if indices else 0
            for previous, current in zip(indices, indices[1:]):
                run = run + 1 if current == previous + 1 else 1
                best = max(best, run)
            return best >= self._config.recurring_periods

        for (domain, period_index), classification in sorted(classifications.items()):
            if classification.kind is not PatternKind.TRANSIENT:
                continue

            def prune(reason: str) -> None:
                decisions.append(PruneDecision(domain, period_index, False, reason))

            if self.low_visibility(classification.map):
                prune("low-visibility")
                continue
            if chronic(domain):
                prune("recurring-transients")
                continue

            for transient in classification.transients:
                if self.org_related(classification, transient):
                    prune("org-related-asn")
                    continue
                if self.same_country(classification, transient):
                    prune("same-country")
                    continue
                anomalous = self.truly_anomalous(domain, period_index, classifications)
                rows = self._transient_rows(classification, transient)
                sensitive = self._sensitive_from_rows(rows)
                if not sensitive and not anomalous:
                    prune("no-sensitive-name")
                    continue
                entries.append(
                    ShortlistEntry(
                        domain=domain,
                        period_index=period_index,
                        classification=classification,
                        transient=transient,
                        subpattern=transient_subpattern_of(classification, transient),
                        truly_anomalous=anomalous,
                        sensitive_names=sensitive,
                        transient_records=[table.record(row) for row in rows],
                        transient_rows=rows,
                    )
                )
                decisions.append(PruneDecision(domain, period_index, True, "shortlisted"))
        return entries, decisions


# -- the compact wire form -----------------------------------------------------


def encode_shortlist(
    entries: list[ShortlistEntry], decisions: list[PruneDecision]
) -> tuple:
    """The shortlist stage's cache product: plain ints and strings.

    Each entry is referenced by position — its transient's index inside
    the classification's ``transients`` list and its evidence rows'
    scan-table ids — so the payload carries no object graphs and decodes
    against whatever process restores it.
    """
    enc_entries = []
    for entry in entries:
        transients = entry.classification.transients
        position = next(
            pos for pos, t in enumerate(transients) if t is entry.transient
        )
        enc_entries.append(
            (
                entry.domain,
                entry.period_index,
                position,
                SUBPATTERN_CODE[entry.subpattern],
                entry.truly_anomalous,
                entry.sensitive_names,
                entry.transient_rows,
            )
        )
    enc_decisions = [
        (d.domain, d.period_index, d.kept, d.reason) for d in decisions
    ]
    return (tuple(enc_entries), tuple(enc_decisions))


def decode_shortlist(
    encoded: tuple,
    classifications: dict[tuple[str, int], Classification],
    dataset: ScanDataset,
) -> tuple[list[ShortlistEntry], list[PruneDecision]]:
    """Materialize entries/decisions against the restored upstream
    classifications and the scan table."""
    enc_entries, enc_decisions = encoded
    table = dataset.table
    entries: list[ShortlistEntry] = []
    for domain, period_index, position, sub_code, anomalous, sensitive, rows in enc_entries:
        classification = classifications[(domain, period_index)]
        entries.append(
            ShortlistEntry(
                domain=domain,
                period_index=period_index,
                classification=classification,
                transient=classification.transients[position],
                subpattern=ENCODED_SUBPATTERNS[sub_code],
                truly_anomalous=anomalous,
                sensitive_names=sensitive,
                transient_records=[table.record(row) for row in rows],
                transient_rows=rows,
            )
        )
    decisions = [
        PruneDecision(domain, period_index, kept, reason)
        for domain, period_index, kept, reason in enc_decisions
    ]
    return entries, decisions
