"""Segment data plane economics — open latency and pooled peak RSS.

The paper's retrospective runs sweep years of scan snapshots over
millions of registered domains; the reproduction's segment format exists
so such a population costs a worker O(touched values) resident memory,
not O(dataset).  This module measures the two quantities that justify
it, on the synthetic scale world (``repro.world.scale``):

* **open latency** — remapping a written segment bundle versus
  unpickling the equivalent in-RAM input bundle (what a pickle-shipping
  backend pays per process), plus the worker descriptor size a shard
  scheduler actually sends;
* **pooled peak RSS** — a segment-backed pool run versus the in-RAM
  pooled baseline, each probed in a fresh interpreter
  (``python -m repro.obs.rss_probe``) so neither inherits the other's
  high-water mark.

The RSS comparison is a hard CI floor: the segment-backed run must not
out-consume the in-RAM baseline.  ``REPRO_BENCH_SEGMENT_DOMAINS`` scales
the population (default 50 000; CI's soak job pushes higher).
"""

import os
import pickle

from conftest import show

from repro.obs.perf import measure_segments
from repro.segments import load_segment_inputs, write_segments
from repro.world.scale import scale_world

N_DOMAINS = int(os.environ.get("REPRO_BENCH_SEGMENT_DOMAINS", "50000"))
N_ACTIVE = 200


def test_segment_rss_floor_and_open_latency(benchmark):
    """The headline numbers, via the same producer that fills the
    ``segments`` section of BENCH_perf.json."""
    summary = benchmark.pedantic(
        lambda: measure_segments(N_DOMAINS, n_active=N_ACTIVE),
        rounds=1, iterations=1,
    )
    seg, ram = summary["segment_run"], summary["inram_run"]
    show(
        f"Segment data plane at {N_DOMAINS} domains (measured)",
        [
            f"write: {summary['write_seconds'] * 1e3:8.1f} ms "
            f"({summary['segment_bytes'] / 1024:,.0f} KiB on disk)",
            f"open:  {summary['open_seconds'] * 1e3:8.1f} ms   "
            f"pickle-load: {summary['pickle_load_seconds'] * 1e3:8.1f} ms "
            f"({summary['pickle_bytes'] / 1024:,.0f} KiB payload)",
            f"pooled peak RSS: segment {seg['peak_rss_bytes'] / 1e6:7.1f} MB"
            f"   in-RAM {ram['peak_rss_bytes'] / 1e6:7.1f} MB",
        ],
    )

    # The CI floor: mapped segments must never out-consume the in-RAM
    # path at the same population.
    assert summary["rss_within_baseline"], (
        f"segment-backed pooled run used {seg['peak_rss_bytes']} bytes, "
        f"in-RAM baseline {ram['peak_rss_bytes']}"
    )
    # Both probes walked the same funnel.
    assert seg["findings"] == ram["findings"]
    assert seg["funnel_domains"] == ram["funnel_domains"] == N_ACTIVE

    benchmark.extra_info["n_domains"] = N_DOMAINS
    benchmark.extra_info["segment_bytes"] = summary["segment_bytes"]
    benchmark.extra_info["open_ms"] = round(summary["open_seconds"] * 1e3, 1)
    benchmark.extra_info["segment_rss_mb"] = round(seg["peak_rss_bytes"] / 1e6, 1)
    benchmark.extra_info["inram_rss_mb"] = round(ram["peak_rss_bytes"] / 1e6, 1)


def test_segment_worker_descriptor_is_tiny(tmp_path, benchmark):
    """What actually crosses a process boundary: a segment-backed input
    bundle pickles as its paths, orders of magnitude under the in-RAM
    bundle a pickle-shipping backend would copy per worker."""
    inputs = scale_world(N_DOMAINS, n_active=N_ACTIVE)
    inram_bytes = len(pickle.dumps(inputs, protocol=5))
    write_segments(inputs, tmp_path / "segments")
    del inputs

    mapped = load_segment_inputs(tmp_path / "segments")
    blob = benchmark.pedantic(
        lambda: pickle.dumps(mapped, protocol=5), rounds=1, iterations=1
    )
    show(
        f"Worker payload at {N_DOMAINS} domains (measured)",
        [
            f"in-RAM bundle pickle:  {inram_bytes:>12,} bytes",
            f"segment bundle pickle: {len(blob):>12,} bytes",
        ],
    )
    assert len(blob) < 4096
    assert len(blob) * 100 < inram_bytes

    # And the descriptor round-trips: the unpickled bundle reattaches to
    # the same mapping and sees the same population.
    reattached = pickle.loads(blob)
    ours, theirs = mapped.scan.domains(), reattached.scan.domains()
    assert len(theirs) == len(ours) == N_DOMAINS
    for index in (0, 1, len(ours) // 2, len(ours) - 1):
        assert theirs[index] == ours[index]

    benchmark.extra_info["inram_pickle_bytes"] = inram_bytes
    benchmark.extra_info["segment_pickle_bytes"] = len(blob)
