"""The ``repro-segment/2`` container: mmap-reopenable blobs, each checksummed.

One segment file holds named binary blobs — typed-array columns, flat
pool payloads, small pickles — behind a JSON header::

    b"repro-segment/2\\n"          magic
    8-byte big-endian length       of the JSON header
    header JSON                    {"table", "blobs": [...], "meta",
                                    "payload_bytes"}; each blob spec
                                   carries its SHA-256
    32-byte SHA-256                over every preceding byte
    payload                        blob bytes, 8-byte aligned, zero padded

The checksums make truncation and bit flips a *typed* failure
(:class:`SegmentChecksumError`), never garbage rows, and they are
checked where the bytes are used:

* :meth:`Segment.open` checks the header digest and that the file is
  exactly as long as the header says: O(header), whatever the payload;
* :meth:`Segment.blob` verifies a blob the first time that segment hands
  it out, and remembers it (a forked worker inherits what its parent
  already checked), so a run verifies only what it reads;
* :func:`verify_segment` checks every byte: header, each blob, the zero
  padding and the length.

Blobs verify with bounded ``os.pread`` calls on the descriptor the map
was made from: hashing through the map would fault every page into the
reader's resident set, and reopening the path could hash a file that
replaced the mapped one.  Writes land via
:func:`repro.atomic.atomic_write`, like the stage cache's, so a crashed
writer leaves no half-segment behind.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
from array import array
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterator

from repro.atomic import atomic_write

MAGIC = b"repro-segment/2\n"
#: The previous container (one whole-file checksum); refused, not read.
_MAGIC_V1 = b"repro-segment/1\n"

_DIGEST_BYTES = 32
_LENGTH_BYTES = 8
_PREFIX_BYTES = len(MAGIC) + _LENGTH_BYTES
_ALIGN = 8
_VERIFY_CHUNK = 1 << 20

#: array/memoryview typecodes a segment may carry (native struct codes).
_TYPECODES = {"b": 1, "B": 1, "h": 2, "H": 2, "i": 4, "I": 4, "q": 8, "Q": 8}


class SegmentError(Exception):
    """A segment file is structurally unusable (bad magic, header, spec)."""


class SegmentChecksumError(SegmentError):
    """A segment file failed checksum verification (truncated or flipped)."""


def _pad(length: int) -> int:
    return (-length) % _ALIGN


class SegmentWriter:
    """Accumulates named blobs, then writes one segment file atomically."""

    def __init__(self, table: str, meta: dict[str, Any] | None = None) -> None:
        self.table = table
        self.meta = dict(meta or {})
        self._blobs: list[tuple[str, str, str, bytes]] = []
        self._names: set[str] = set()

    def _add(self, name: str, kind: str, typecode: str, data: bytes) -> None:
        if name in self._names:
            raise SegmentError(f"duplicate blob name {name!r}")
        self._names.add(name)
        self._blobs.append((name, kind, typecode, data))

    def add_array(self, name: str, values: array) -> None:
        if values.typecode not in _TYPECODES:
            raise SegmentError(f"unsupported array typecode {values.typecode!r}")
        self._add(name, "array", values.typecode, values.tobytes())

    def add_bytes(self, name: str, data: bytes) -> None:
        self._add(name, "bytes", "B", bytes(data))

    def add_pickle(self, name: str, obj: Any) -> None:
        self._add(name, "pickle", "B", pickle.dumps(obj, protocol=5))

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        specs = []
        offset = 0
        for name, kind, typecode, data in self._blobs:
            specs.append(
                {
                    "name": name,
                    "kind": kind,
                    "typecode": typecode,
                    "offset": offset,
                    "length": len(data),
                    "sha256": sha256(data).hexdigest(),
                }
            )
            offset += len(data) + _pad(len(data))
        header = json.dumps(
            {
                "table": self.table,
                "blobs": specs,
                "meta": self.meta,
                "payload_bytes": offset,
            },
            sort_keys=True,
        ).encode("utf-8")
        head = MAGIC + len(header).to_bytes(_LENGTH_BYTES, "big") + header
        head += sha256(head).digest()
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as handle:
            # Align the payload start (the reader assumes it).
            handle.write(head + b"\0" * _pad(len(head)))
            for _, _, _, data in self._blobs:
                handle.write(data)
                handle.write(b"\0" * _pad(len(data)))
        return path


def _pread(fd: int, size: int, offset: int, path: Path) -> bytes:
    try:
        data = os.pread(fd, size, offset)
    except OSError as error:
        raise SegmentError(f"{path}: unreadable segment: {error}") from error
    if len(data) != size:
        raise SegmentChecksumError(f"{path}: short read at offset {offset}")
    return data


def _read_header(fd: int, path: Path) -> tuple[dict[str, Any], int]:
    """Check the header digest and the file length; returns the parsed
    header and the offset just past the header digest.

    The digest covers the magic and the length field too, and is checked
    before either is trusted, so a flip anywhere in the header is a
    checksum error rather than a misparse.
    """
    size = os.fstat(fd).st_size
    if size < _PREFIX_BYTES + _DIGEST_BYTES:
        raise SegmentChecksumError(f"{path}: truncated segment ({size} bytes)")
    prefix = _pread(fd, _PREFIX_BYTES, 0, path)
    if prefix[: len(_MAGIC_V1)] == _MAGIC_V1:
        raise SegmentError(
            f"{path}: a repro-segment/1 file, which this version no longer "
            "reads; rewrite it ('repro-hunt segments write' for a bundle, "
            "'repro-hunt epoch delta' for a delta)"
        )
    header_end = _PREFIX_BYTES + int.from_bytes(prefix[len(MAGIC) :], "big")
    if header_end + _DIGEST_BYTES > size:
        raise SegmentChecksumError(f"{path}: truncated segment (header overruns)")
    head = prefix + _pread(fd, header_end - _PREFIX_BYTES, _PREFIX_BYTES, path)
    if _pread(fd, _DIGEST_BYTES, header_end, path) != sha256(head).digest():
        raise SegmentChecksumError(f"{path}: header checksum mismatch")
    if prefix[: len(MAGIC)] != MAGIC:
        raise SegmentError(f"{path}: not a repro segment (bad magic)")
    try:
        header = json.loads(head[_PREFIX_BYTES:])
    except ValueError as error:
        raise SegmentError(f"{path}: undecodable header: {error}") from error
    if not isinstance(header, dict) or not {"blobs", "payload_bytes"} <= header.keys():
        raise SegmentError(f"{path}: malformed header")
    for spec in header["blobs"]:
        if spec["offset"] + spec["length"] > header["payload_bytes"]:
            raise SegmentError(f"{path}: blob {spec['name']!r} overruns the file")
    head_end = header_end + _DIGEST_BYTES
    expected = head_end + _pad(head_end) + header["payload_bytes"]
    if size != expected:
        raise SegmentChecksumError(
            f"{path}: segment is {size} bytes, its header says {expected}"
        )
    return header, head_end


class Segment:
    """One memory-mapped segment file whose blobs verify on first read."""

    def __init__(
        self, path: Path, header: dict[str, Any], head_end: int, handle, mapped
    ) -> None:
        self.path = path
        self.table: str = header.get("table", "")
        self.meta: dict[str, Any] = header.get("meta", {})
        self._handle = handle
        self._mmap = mapped
        self._view = memoryview(mapped)
        self._head_end = head_end
        self._specs: dict[str, dict[str, Any]] = {}
        self._verified: set[str] = set()
        data_start = head_end + _pad(head_end)
        for spec in header["blobs"]:
            spec = dict(spec)
            spec["offset"] += data_start
            self._specs[spec["name"]] = spec

    @classmethod
    def open(cls, path: str | Path) -> "Segment":
        """Map a segment after checking its header and length (not its
        blobs: each verifies on its first :meth:`blob`)."""
        path = Path(path)
        try:
            handle = open(path, "rb", buffering=0)
        except OSError as error:
            raise SegmentError(f"{path}: unreadable segment: {error}") from error
        try:
            header, head_end = _read_header(handle.fileno(), path)
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            handle.close()
            raise
        return cls(path, header, head_end, handle, mapped)

    # -- verification ----------------------------------------------------------

    def _chunks(self, lo: int, hi: int) -> Iterator[bytes]:
        """``[lo, hi)`` of the file, in bounded reads off the descriptor."""
        fd = self._handle.fileno()
        while lo < hi:
            chunk = _pread(fd, min(_VERIFY_CHUNK, hi - lo), lo, self.path)
            yield chunk
            lo += len(chunk)

    def _verify(self, spec: dict[str, Any]) -> None:
        name = spec["name"]
        if name in self._verified:
            return
        digest = sha256()
        for chunk in self._chunks(spec["offset"], spec["offset"] + spec["length"]):
            digest.update(chunk)
        if digest.hexdigest() != spec.get("sha256"):
            raise SegmentChecksumError(f"{self.path}: blob {name!r} checksum mismatch")
        self._verified.add(name)

    def _check_padding(self, lo: int, hi: int) -> None:
        for chunk in self._chunks(lo, hi):
            if chunk.count(0) != len(chunk):
                raise SegmentChecksumError(f"{self.path}: nonzero padding in [{lo}, {hi})")

    def verify(self) -> None:
        """Check every byte past the header: each blob and the zero
        padding around it."""
        cursor = self._head_end
        for spec in sorted(self._specs.values(), key=lambda s: s["offset"]):
            if spec["offset"] < cursor:
                raise SegmentError(f"{self.path}: blob {spec['name']!r} overlaps")
            self._check_padding(cursor, spec["offset"])
            self._verify(spec)
            cursor = spec["offset"] + spec["length"]
        self._check_padding(cursor, len(self._view))

    # -- blob accessors --------------------------------------------------------

    def _spec(self, name: str) -> dict[str, Any]:
        spec = self._specs.get(name)
        if spec is None:
            raise SegmentError(f"{self.path}: no blob named {name!r}")
        return spec

    def blob(self, name: str) -> memoryview:
        """The named blob as a view over the mapping, verified first."""
        spec = self._spec(name)
        self._verify(spec)
        lo = spec["offset"]
        return self._view[lo : lo + spec["length"]]

    def array(self, name: str):
        """The named column as a zero-copy typed view over the mapping."""
        spec = self._spec(name)
        typecode = spec["typecode"]
        itemsize = _TYPECODES.get(typecode)
        if itemsize is None or spec["length"] % itemsize:
            raise SegmentError(
                f"{self.path}: blob {name!r} is not a {typecode!r} array"
            )
        if spec["length"] == 0:
            return array(typecode)
        return self.blob(name).cast(typecode)

    def pickle(self, name: str) -> Any:
        return pickle.loads(self.blob(name))

    def names(self) -> Iterator[str]:
        return iter(self._specs)

    def spec(self, name: str) -> dict[str, Any]:
        return dict(self._spec(name))

    @property
    def bytes_mapped(self) -> int:
        return len(self._view)

    def close(self) -> None:
        self._view.release()
        self._mmap.close()
        self._handle.close()


def verify_segment(path: str | Path) -> dict[str, Any]:
    """Verify one segment end to end; returns its header summary.

    Streams the file blob by blob.  Raises :class:`SegmentChecksumError`
    on corruption and :class:`SegmentError` on structural problems —
    never returns rows from a bad file.
    """
    segment = Segment.open(path)
    try:
        segment.verify()
        return {
            "path": str(segment.path),
            "table": segment.table,
            "bytes": segment.bytes_mapped,
            "blobs": [
                {k: spec[k] for k in ("name", "kind", "typecode", "length")}
                for spec in segment._specs.values()
            ],
            "meta": segment.meta,
        }
    finally:
        segment.close()


__all__ = [
    "MAGIC",
    "Segment",
    "SegmentChecksumError",
    "SegmentError",
    "SegmentWriter",
    "verify_segment",
]
