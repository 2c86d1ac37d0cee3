"""The ``repro-delta/1`` epoch delta file: appended evidence, one epoch.

A delta is the unit of longitudinal growth: the new scan observations,
pDNS aggregate updates, and CT log entries that arrived since the last
run over a base dataset.  It is append-only by construction — a delta
never rewrites or retracts base evidence, which is precisely the
property that makes the overlay merge (:mod:`repro.segments.overlay`)
id-stable and the dirty set
(:func:`repro.epochs.engine.compute_dirty_set`) exact.

On disk a delta reuses the segment container
(:mod:`repro.segments.format`): the header carries the schema, epoch
number, label, row counts, and any scan-calendar additions; the three
evidence channels travel as pickle blobs (deltas are small by
definition — the point of the epoch engine is that the *delta* is the
unit of work, so a columnar layout would buy nothing here).
:func:`read_delta` unpickles every blob, so the container's checksums
make truncation and corruption a load error rather than a silently
short epoch.  A delta written in the older ``repro-segment/1``
container is refused and must be rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.segments.format import Segment, SegmentError, SegmentWriter

if TYPE_CHECKING:
    from repro.pdns.database import RRType
    from repro.tls.certificate import Certificate

DELTA_SCHEMA = "repro-delta/1"

#: One appended scan observation, in :meth:`_TableBuilder.append_row`
#: argument order: ``(date_ordinal, ip, asn, certificate, country,
#: ports, names, base_domains, trusted, sensitive)``.
ScanRow = tuple


@dataclass(frozen=True)
class EpochDelta:
    """Everything one epoch appends to a base dataset."""

    epoch: int
    label: str = ""
    #: Appended scan rows (``ScanRow`` tuples, dataset append order).
    scan_rows: tuple[ScanRow, ...] = ()
    #: Scan-calendar dates the epoch adds (new weekly snapshots).
    scan_dates: tuple[date, ...] = ()
    #: Scheduled scans the epoch learned were lost.
    known_missing: tuple[date, ...] = ()
    #: ``(rrname, rtype, rdata, day)`` pDNS observations to fold in.
    pdns_observations: tuple[tuple[str, "RRType", str, date], ...] = ()
    #: ``(certificate, logged_day)`` CT submissions.
    ct_entries: tuple[tuple["Certificate", date], ...] = ()
    #: Revocations learned this epoch: ``(fingerprint, revoked_on,
    #: reason)`` records, installed into the merged service's registry.
    revocations: tuple[tuple[str, date, str], ...] = ()

    def __len__(self) -> int:
        return (
            len(self.scan_rows)
            + len(self.pdns_observations)
            + len(self.ct_entries)
        )

    def counts(self) -> dict[str, int]:
        return {
            "scan_rows": len(self.scan_rows),
            "scan_dates": len(self.scan_dates),
            "pdns_observations": len(self.pdns_observations),
            "ct_entries": len(self.ct_entries),
            "revocations": len(self.revocations),
        }

    def fingerprint_payload(self) -> dict[str, Any]:
        """A canonical JSON-safe identity (certificates by fingerprint)."""
        return {
            "schema": DELTA_SCHEMA,
            "epoch": self.epoch,
            "label": self.label,
            "scan_rows": [
                [
                    row[0], row[1], row[2], row[3].fingerprint, row[4],
                    list(row[5]), list(row[6]), list(row[7]),
                    bool(row[8]), bool(row[9]),
                ]
                for row in self.scan_rows
            ],
            "scan_dates": [d.isoformat() for d in self.scan_dates],
            "known_missing": [d.isoformat() for d in self.known_missing],
            "pdns": [
                [rrname, rtype.name, rdata, day.isoformat()]
                for rrname, rtype, rdata, day in self.pdns_observations
            ],
            "ct": [
                [cert.fingerprint, day.isoformat()]
                for cert, day in self.ct_entries
            ],
            "revocations": sorted(
                [fp, on.isoformat(), reason]
                for fp, on, reason in self.revocations
            ),
        }

    def digest(self) -> str:
        from repro.cache.fingerprint import value_digest

        return value_digest(self.fingerprint_payload())


def write_delta(delta: EpochDelta, path: str | Path) -> Path:
    """Write one delta as a checksummed ``repro-delta/1`` container."""
    writer = SegmentWriter(
        "delta",
        meta={
            "schema": DELTA_SCHEMA,
            "epoch": delta.epoch,
            "label": delta.label,
            "scan_dates": sorted(d.toordinal() for d in delta.scan_dates),
            "known_missing": sorted(d.toordinal() for d in delta.known_missing),
            "counts": delta.counts(),
        },
    )
    writer.add_pickle("scan_rows", list(delta.scan_rows))
    writer.add_pickle(
        "pdns",
        [
            (rrname, rtype, rdata, day)
            for rrname, rtype, rdata, day in delta.pdns_observations
        ],
    )
    writer.add_pickle("ct", list(delta.ct_entries))
    writer.add_pickle("revocations", sorted(delta.revocations))
    return writer.write(path)


def read_delta(path: str | Path) -> EpochDelta:
    """Load and verify one ``repro-delta/1`` file."""
    segment = Segment.open(path)
    if segment.table != "delta":
        raise SegmentError(
            f"{path}: expected a delta container, found {segment.table!r}"
        )
    meta = segment.meta
    if meta.get("schema") != DELTA_SCHEMA:
        raise SegmentError(
            f"{path}: unsupported delta schema {meta.get('schema')!r} "
            f"(expected {DELTA_SCHEMA!r})"
        )
    return EpochDelta(
        epoch=int(meta["epoch"]),
        label=str(meta.get("label", "")),
        scan_rows=tuple(tuple(row) for row in segment.pickle("scan_rows")),
        scan_dates=tuple(
            date.fromordinal(o) for o in meta.get("scan_dates", ())
        ),
        known_missing=tuple(
            date.fromordinal(o) for o in meta.get("known_missing", ())
        ),
        pdns_observations=tuple(
            tuple(obs) for obs in segment.pickle("pdns")
        ),
        ct_entries=tuple(tuple(entry) for entry in segment.pickle("ct")),
        revocations=tuple(
            tuple(rec) for rec in segment.pickle("revocations")
        ),
    )


__all__ = ["DELTA_SCHEMA", "EpochDelta", "read_delta", "write_delta"]
