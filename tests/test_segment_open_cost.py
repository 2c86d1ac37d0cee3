"""Structural cost tests: a run verifies the segment bytes it reads.

A segment blob verifies on its first read, not when its file opens, so
opening a bundle and running a warm hunt from a filled cache should
stream a constant number of bytes through the verifier: the headers,
the small pickles (aux context and CT envelope, the pDNS and CT pools)
and the scan pools the cached deployment maps decode against.  Two
scale-world bundles, 2,000 and 20,000 domains, must both stay under one
bound that a whole-file check at open exceeds several times over.

The rest pins the other side of lazy verification.  A flipped byte
inside ``csr_rows`` fails a cold hunt on every backend, in whichever
process first reads the blob.  A warm hunt over the same bundle never
reads that blob, so it returns the clean bundle's report bytes.
"""

from __future__ import annotations

import shutil

import pytest

from repro.cache import StageCache
from repro.core.pipeline import HijackPipeline
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.io.golden import encode_report
from repro.segments import (
    Segment,
    SegmentChecksumError,
    load_segment_inputs,
    segment_paths,
    write_segments,
)
from repro.segments import format as segment_format
from repro.world.scale import scale_world

SIZES = (2_000, 20_000)
#: Verifier bytes allowed for open plus warm hunt, at any population.
#: About 13 KB of headers and 49 KB of pickles and pools are read at
#: both sizes; the 20,000-domain bundle is 3.7 MB.
BOUND = 96 * 1024

BACKENDS = {
    "serial": SerialBackend,
    "fork": lambda: ProcessPoolBackend(jobs=2, start_method="fork"),
    "spawn": lambda: ProcessPoolBackend(jobs=2, start_method="spawn"),
}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    paths = {}
    for n in SIZES:
        directory = tmp_path_factory.mktemp(f"scale-{n}")
        write_segments(scale_world(n, seed=0), directory)
        paths[n] = directory
    return paths


@pytest.fixture(scope="module")
def flipped(bundles, tmp_path_factory):
    """The 2,000-domain bundle with one byte flipped inside ``csr_rows``."""
    directory = tmp_path_factory.mktemp("flipped")
    shutil.copytree(bundles[SIZES[0]], directory, dirs_exist_ok=True)
    path = segment_paths(directory)["scan"]
    segment = Segment.open(path)
    spec = segment.spec("csr_rows")
    segment.close()
    data = bytearray(path.read_bytes())
    data[spec["offset"] + spec["length"] // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    return directory


def _hunt(directory, backend=None, cache=None):
    inputs = load_segment_inputs(directory)
    return HijackPipeline(inputs).profile(backend or SerialBackend(), cache=cache)


def test_open_and_warm_hunt_verify_a_constant(bundles, tmp_path, monkeypatch):
    streamed = {"on": False, "bytes": 0}
    pread = segment_format._pread

    def metered(fd, size, offset, path):
        streamed["bytes"] += streamed["on"] and size
        return pread(fd, size, offset, path)

    monkeypatch.setattr(segment_format, "_pread", metered)
    counts = {}
    for n, directory in bundles.items():
        cache = StageCache(tmp_path / f"cache-{n}")
        cold, _ = _hunt(directory, cache=cache)
        streamed.update(on=True, bytes=0)
        warm, metrics = _hunt(directory, cache=cache)
        streamed["on"] = False
        assert all(stage.cached for stage in metrics.stages)
        assert encode_report(warm) == encode_report(cold)
        counts[n] = streamed["bytes"]
    size = sum(p.stat().st_size for p in segment_paths(bundles[SIZES[-1]]).values())
    assert size > 10 * BOUND
    assert all(count <= BOUND for count in counts.values()), (counts, BOUND)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_cold_hunt_over_a_flipped_blob_raises(flipped, backend):
    with pytest.raises(SegmentChecksumError, match="csr_rows"):
        _hunt(flipped, BACKENDS[backend]())


def test_warm_hunt_over_a_flipped_blob_it_never_reads(bundles, flipped, tmp_path):
    cache = StageCache(tmp_path / "cache")
    clean, _ = _hunt(bundles[SIZES[0]], cache=cache)
    warm, _ = _hunt(flipped, cache=cache)
    assert encode_report(warm) == encode_report(clean)
