"""Whole-input-bundle segment directories.

``write_segments`` lays a :class:`~repro.core.pipeline.PipelineInputs`
bundle into one directory of ``repro-segment/3`` files::

    scan.seg    the annotated scan table + its calendar
    pdns.seg    the aggregated passive-DNS table
    ct.seg      the published CT entry table
    aux.seg     everything small: AS2Org, periods, routing, geo and
                their content digests, the CT service envelope, and
                the raw CT logs (loaded lazily, only for
                publication-delay derivation and the epoch merge)

``load_segment_inputs`` reopens the directory as a bundle whose three
evidence channels are mmap-backed: the scan dataset wraps a
:class:`~repro.segments.tables.SegmentScanTable`, the pDNS database a
:class:`~repro.segments.tables.SegmentPdnsTable` (its aggregate dict
hydrates only if a derivation needs it), and crt.sh a :class:`SegmentCrtShService`
that answers every query from the mapped table without touching the
pickled logs.  Opening checks each file's header and verifies only the
small pickles it loads; every other blob verifies on its first read.
Each table segment's header stores its content-digest blocks and
``aux.seg``'s the context datasets' digests, so the first cache probe
over a reopened bundle hashes nothing; a segment-backed bundle and its
in-RAM twin produce the same per-channel ``input_digests``, so they
share cache entries and golden reports byte for byte.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.ct.crtsh import CrtShService
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.segments.format import Segment, SegmentError, SegmentWriter
from repro.segments.tables import (
    open_ct_table,
    open_pdns_table,
    open_scan_table,
    write_ct_table,
    write_pdns_table,
    write_scan_table,
)

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineInputs

#: Segment file names inside one bundle directory.
_FILES = {"scan": "scan.seg", "pdns": "pdns.seg", "ct": "ct.seg", "aux": "aux.seg"}

#: ``aux.seg`` header key of the context datasets' content digests.
_CONTEXT_KEY = "context_digests"


def segment_paths(directory: str | Path) -> dict[str, Path]:
    """The four segment paths of one bundle directory."""
    directory = Path(directory)
    return {name: directory / filename for name, filename in _FILES.items()}


class SegmentCrtShService(CrtShService):
    """A crt.sh service answering from a mapped CT segment.

    The raw logs (needed only to derive a publication-delayed service
    and to merge an epoch's entries) stay pickled in the aux segment and
    load lazily; every search, and the content digest, goes straight to
    the segment table.  Pickles as its directory, so workers reattach to
    the mapping.
    """

    def __init__(self, directory: str | Path) -> None:
        directory = Path(directory)
        paths = segment_paths(directory)
        aux = Segment.open(paths["aux"])
        envelope = aux.pickle("ct_service")
        super().__init__(
            logs=None,
            revocations=envelope["revocations"],
            asof=envelope["asof"],
            publication_delay_days=envelope["delay_days"],
            publication_horizon=envelope["horizon"],
        )
        self.__dict__["_logs_real"] = None  # arm the lazy log load
        self._aux = aux
        self._directory = str(directory)
        self._table = open_ct_table(paths["ct"])
        self.hidden_entries = self._table.hidden_entries

    # ``_logs`` is a plain attribute on the base class; here it is a
    # data descriptor, so the base ``__init__`` assignment routes into
    # the setter and the pickled logs stay on disk until first touched.
    @property
    def _logs(self):
        logs = self.__dict__.get("_logs_real")
        if logs is None:
            logs = self._aux.pickle("ct_logs")
            self.__dict__["_logs_real"] = logs
            if self._table is not None and self._table_count < 0:
                # Sync the rebuild check so the base class keeps the
                # segment table now that the log count is knowable.
                self._table_count = sum(len(log.entries()) for log in logs)
        return logs

    @_logs.setter
    def _logs(self, value) -> None:
        self.__dict__["_logs_real"] = list(value) if value is not None else None

    def _ensure_table(self):
        if self.__dict__.get("_logs_real") is None and self._table is not None:
            return self._table
        return super()._ensure_table()

    def __reduce__(self):
        return (SegmentCrtShService, (self._directory,))


def write_segments(inputs: PipelineInputs, directory: str | Path) -> dict[str, Path]:
    """Write one input bundle as a segment directory; returns the paths."""
    from repro.cache.fingerprint import context_digests, without_digest

    paths = segment_paths(directory)
    scan = inputs.scan
    write_scan_table(
        scan.table,
        paths["scan"],
        scan_dates=scan.scan_dates,
        known_missing=scan.known_missing_dates,
    )
    write_pdns_table(inputs.pdns.table, paths["pdns"])
    crtsh = inputs.crtsh
    write_ct_table(crtsh.table, paths["ct"])
    aux = SegmentWriter("aux", meta={_CONTEXT_KEY: context_digests(inputs)})
    aux.add_pickle(
        "context",
        {
            "as2org": without_digest(inputs.as2org),
            "periods": tuple(inputs.periods),
            "routing": without_digest(inputs.routing),
            "geo": without_digest(inputs.geo),
        },
    )
    aux.add_pickle(
        "ct_service",
        {
            "revocations": crtsh._revocations,
            "asof": crtsh._asof,
            "delay_days": crtsh._publication_delay.days,
            "horizon": crtsh._publication_horizon,
        },
    )
    aux.add_pickle("ct_logs", list(crtsh._logs))
    aux.write(paths["aux"])
    return paths


def load_segment_inputs(directory: str | Path) -> PipelineInputs:
    """Reopen a segment directory as a pipeline input bundle."""
    from repro.cache.fingerprint import seed_digest
    from repro.core.pipeline import PipelineInputs

    directory = Path(directory)
    paths = segment_paths(directory)
    for name, path in paths.items():
        if not path.is_file():
            raise SegmentError(f"{directory}: missing {name} segment ({path.name})")
    scan_table = open_scan_table(paths["scan"])
    meta = scan_table.segment.meta
    scan = ScanDataset.from_table(
        scan_table,
        tuple(date.fromordinal(o) for o in meta.get("scan_dates", ())),
        known_missing_dates=frozenset(
            date.fromordinal(o) for o in meta.get("known_missing", ())
        ),
    )
    pdns = PassiveDNSDatabase.from_table(open_pdns_table(paths["pdns"]))
    crtsh = SegmentCrtShService(directory)
    context = crtsh._aux.pickle("context")
    for name, digest in crtsh._aux.meta.get(_CONTEXT_KEY, {}).items():
        if digest is not None:
            seed_digest(context[name], digest)
    return PipelineInputs(
        scan=scan,
        pdns=pdns,
        crtsh=crtsh,
        as2org=context["as2org"],
        periods=tuple(context["periods"]),
        routing=context["routing"],
        geo=context["geo"],
    )


def inputs_bytes_mapped(inputs: Any) -> int:
    """Total mapped segment bytes behind a bundle (0 if in-RAM)."""
    total = 0
    seen: set[int] = set()
    candidates = (
        getattr(getattr(inputs, "scan", None), "table", None),
        getattr(getattr(inputs, "pdns", None), "_table", None),
        getattr(getattr(inputs, "crtsh", None), "_table", None),
        getattr(getattr(inputs, "crtsh", None), "_aux", None),
    )
    for holder in candidates:
        segment = holder if isinstance(holder, Segment) else getattr(holder, "segment", None)
        if isinstance(segment, Segment) and id(segment) not in seen:
            seen.add(id(segment))
            total += segment.bytes_mapped
    return total


__all__ = [
    "SegmentCrtShService",
    "inputs_bytes_mapped",
    "load_segment_inputs",
    "segment_paths",
    "write_segments",
]
