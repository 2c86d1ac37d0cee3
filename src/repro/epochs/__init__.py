"""Epoch deltas and the incremental re-run engine.

A study grows by **epochs**: append-only ``repro-delta/1`` files carry
the scan rows, pDNS observations, CT entries, and revocations that
arrived since the last run.  The engine merges a delta onto the base
bundle as an id-stable overlay, computes which domains' deployment
encodings the delta invalidates (the dirty set), and re-encodes only
those — reusing the base run's banked cache products for every clean
domain of the population.  The result is required to be
byte-identical to a full cold run over the merged dataset.

* :mod:`repro.epochs.delta` — the delta file format and value object.
* :mod:`repro.epochs.engine` — merge, dirty set, seeded incremental run.
"""

from repro.epochs.delta import DELTA_SCHEMA, EpochDelta, read_delta, write_delta
from repro.epochs.engine import DirtySet, compute_dirty_set, merge_inputs, run_epoch

__all__ = [
    "DELTA_SCHEMA",
    "DirtySet",
    "EpochDelta",
    "compute_dirty_set",
    "merge_inputs",
    "read_delta",
    "run_epoch",
    "write_delta",
]
