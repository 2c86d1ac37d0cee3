"""The ``repro-segment/1`` container: checksummed, mmap-reopenable blobs.

One segment file holds named binary blobs — typed-array columns, flat
pool payloads, small pickles — behind a JSON header::

    b"repro-segment/1\\n"          magic
    8-byte big-endian length       of the JSON header
    header JSON                    {"table", "blobs": [...], "meta": {...}}
    payload                        blob bytes, 8-byte aligned
    16-byte blake2b digest         over every preceding byte

The trailing checksum makes truncation and bit flips a *typed* failure
(:class:`SegmentChecksumError`), never garbage rows: :func:`Segment.open`
verifies the whole file with bounded streamed reads before mapping it —
streaming rather than hashing through the map keeps verification from
faulting every page into the opener's resident set.  Writes land via
:func:`repro.atomic.atomic_write`, like the stage cache's, so a crashed
writer leaves no half-segment behind.
"""

from __future__ import annotations

import json
import mmap
import pickle
from array import array
from hashlib import blake2b
from pathlib import Path
from typing import Any, Iterator

from repro.atomic import atomic_write

MAGIC = b"repro-segment/1\n"

_CHECKSUM_BYTES = 16
_LENGTH_BYTES = 8
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
                }
            )
            offset += len(data) + _pad(len(data))
        header = json.dumps(
            {"table": self.table, "blobs": specs, "meta": self.meta},
            sort_keys=True,
        ).encode("utf-8")
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = blake2b(digest_size=_CHECKSUM_BYTES)
        with atomic_write(path) as handle:

            def emit(chunk: bytes) -> None:
                digest.update(chunk)
                handle.write(chunk)

            emit(MAGIC)
            emit(len(header).to_bytes(_LENGTH_BYTES, "big"))
            emit(header)
            # Align the payload start (the reader assumes it).
            emit(b"\0" * _pad(len(MAGIC) + _LENGTH_BYTES + len(header)))
            for _, _, _, data in self._blobs:
                emit(data)
                emit(b"\0" * _pad(len(data)))
            handle.write(digest.digest())
        return path


def _verify_stream(path: Path) -> None:
    """Checksum the file with bounded reads; raise on any mismatch."""
    digest = blake2b(digest_size=_CHECKSUM_BYTES)
    try:
        size = path.stat().st_size
        with path.open("rb") as handle:
            if size < len(MAGIC) + _LENGTH_BYTES + _CHECKSUM_BYTES:
                raise SegmentChecksumError(f"{path}: truncated segment ({size} bytes)")
            remaining = size - _CHECKSUM_BYTES
            while remaining:
                chunk = handle.read(min(_VERIFY_CHUNK, remaining))
                if not chunk:
                    raise SegmentChecksumError(f"{path}: short read during verify")
                digest.update(chunk)
                remaining -= len(chunk)
            stored = handle.read(_CHECKSUM_BYTES)
    except OSError as error:
        raise SegmentError(f"{path}: unreadable segment: {error}") from error
    if stored != digest.digest():
        raise SegmentChecksumError(f"{path}: segment checksum mismatch")


def _parse_header(view: memoryview, path: Path) -> tuple[dict[str, Any], int]:
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise SegmentError(f"{path}: not a repro segment (bad magic)")
    length_at = len(MAGIC)
    data_at = length_at + _LENGTH_BYTES
    header_len = int.from_bytes(bytes(view[length_at:data_at]), "big")
    header_end = data_at + header_len
    if header_end + _CHECKSUM_BYTES > len(view):
        raise SegmentError(f"{path}: header overruns the file")
    try:
        header = json.loads(bytes(view[data_at:header_end]))
    except ValueError as error:
        raise SegmentError(f"{path}: undecodable header: {error}") from error
    if not isinstance(header, dict) or "blobs" not in header:
        raise SegmentError(f"{path}: malformed header")
    return header, header_end


class Segment:
    """One verified, memory-mapped segment file."""

    def __init__(self, path: Path, header: dict[str, Any], mapped: mmap.mmap) -> None:
        self.path = path
        self.table: str = header.get("table", "")
        self.meta: dict[str, Any] = header.get("meta", {})
        self._mmap = mapped
        self._view = memoryview(mapped)
        self._specs: dict[str, dict[str, Any]] = {}
        data_start = header["_data_start"]
        for spec in header["blobs"]:
            spec = dict(spec)
            spec["offset"] = data_start + int(spec["offset"])
            self._specs[spec["name"]] = spec

    @classmethod
    def open(cls, path: str | Path) -> "Segment":
        path = Path(path)
        _verify_stream(path)
        with path.open("rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            view = memoryview(mapped)
            header, header_end = _parse_header(view, path)
            view.release()
            header["_data_start"] = header_end + _pad(header_end)
            return cls(path, header, mapped)
        except BaseException:
            mapped.close()
            raise

    # -- blob accessors --------------------------------------------------------

    def _spec(self, name: str) -> dict[str, Any]:
        spec = self._specs.get(name)
        if spec is None:
            raise SegmentError(f"{self.path}: no blob named {name!r}")
        return spec

    def blob(self, name: str) -> memoryview:
        spec = self._spec(name)
        lo = spec["offset"]
        hi = lo + spec["length"]
        if hi > len(self._view):
            raise SegmentError(f"{self.path}: blob {name!r} overruns the file")
        return self._view[lo:hi]

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


def verify_segment(path: str | Path) -> dict[str, Any]:
    """Verify one segment end to end; returns its header summary.

    Raises :class:`SegmentChecksumError` on corruption and
    :class:`SegmentError` on structural problems — never returns rows
    from a bad file.
    """
    path = Path(path)
    _verify_stream(path)
    blob = path.read_bytes()
    header, _ = _parse_header(memoryview(blob), path)
    return {
        "path": str(path),
        "table": header.get("table", ""),
        "bytes": len(blob),
        "blobs": [
            {k: spec[k] for k in ("name", "kind", "typecode", "length")}
            for spec in header["blobs"]
        ],
        "meta": header.get("meta", {}),
    }


__all__ = [
    "MAGIC",
    "Segment",
    "SegmentChecksumError",
    "SegmentError",
    "SegmentWriter",
    "verify_segment",
]
