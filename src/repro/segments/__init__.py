"""On-disk table segments: the ``repro-segment/3`` memory-mapped format.

The three evidence tables (scan, pDNS, CT) serialize their typed-array
columns, interned pools, and prebuilt CSR indexes into segment files
that reopen via ``mmap``.  Opening a file checks its header; each blob
carries one checksum per fixed-size chunk, and a read verifies the
chunks it covers, so a run pays for the bytes it reads, while
:func:`verify_segment` checks every byte.
A segment-backed table pickles as its path alone, so process-pool
workers attach to the mapping instead of receiving a copied dataset —
the no-fork-CoW, spawn-safe data plane the shard scheduler in
:mod:`repro.exec` partitions.
"""

from repro.segments.format import (
    Segment,
    SegmentChecksumError,
    SegmentError,
    SegmentWriter,
    verify_segment,
)
from repro.segments.inputs import (
    inputs_bytes_mapped,
    load_segment_inputs,
    segment_paths,
    write_segments,
)
from repro.segments.tables import (
    open_ct_table,
    open_pdns_table,
    open_scan_table,
    write_ct_table,
    write_pdns_table,
    write_scan_table,
)

__all__ = [
    "Segment",
    "SegmentChecksumError",
    "SegmentError",
    "SegmentWriter",
    "inputs_bytes_mapped",
    "load_segment_inputs",
    "open_ct_table",
    "open_pdns_table",
    "open_scan_table",
    "segment_paths",
    "verify_segment",
    "write_ct_table",
    "write_pdns_table",
    "write_scan_table",
]
