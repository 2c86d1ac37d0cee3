"""The ``repro-segment/3`` container: mmap-reopenable blobs, checksummed per chunk.

One segment file holds named binary blobs — typed-array columns, flat
pool payloads, small pickles — behind a JSON header::

    b"repro-segment/3\\n"          magic
    8-byte big-endian length       of the JSON header
    header JSON                    {"table", "blobs": [...], "meta",
                                    "digest_bytes", "payload_bytes"}; each
                                   blob spec carries the SHA-256 of its
                                   chunk-digest list
    32-byte SHA-256                over every preceding byte
    digest table                   8-byte aligned: per blob, one SHA-256
                                   per :data:`CHUNK_BYTES` of its bytes
    payload                        blob bytes, 8-byte aligned, zero padded

The checksums make truncation and bit flips a *typed* failure
(:class:`SegmentChecksumError`), never garbage rows, and they are
checked where the bytes are used, one chunk at a time:

* :meth:`Segment.open` checks the header digest and that the file is
  exactly as long as the header says: O(header), whatever the payload;
  it reads no chunk digest;
* the dense accessors (:meth:`Segment.blob`, :meth:`Segment.array`,
  :meth:`Segment.pickle`) verify every chunk of the blob they return;
* a range read (:meth:`Segment.items`) verifies only the chunks the
  range covers, so a bisect into a population-sized pool hashes a few
  chunks, not the pool (a blob of one chunk, which any read covers
  whole, is verified up front and read as a plain view);
* :func:`verify_segment` checks every byte: header, digest table, each
  chunk, the zero padding and the length.

A blob's chunk-digest list is read and checked against its header
digest on the first read of that blob.  A segment remembers what it
verified (a forked worker inherits what its parent already checked).
Chunks verify with bounded ``os.pread`` calls on the descriptor the map
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
from collections.abc import Sequence
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterator

from repro.atomic import atomic_write

MAGIC = b"repro-segment/3\n"
#: Earlier containers (a whole-file or a whole-blob checksum): refused,
#: not read.
_OLD_MAGICS = (b"repro-segment/1\n", b"repro-segment/2\n")

#: Bytes per checksummed chunk of a blob: the unit a read verifies.
CHUNK_BYTES = 1 << 14

_DIGEST_BYTES = 32
_LENGTH_BYTES = 8
_PREFIX_BYTES = len(MAGIC) + _LENGTH_BYTES
_ALIGN = 8
_READ_BYTES = 1 << 20

#: array/memoryview typecodes a segment may carry (native struct codes).
_TYPECODES = {"b": 1, "B": 1, "h": 2, "H": 2, "i": 4, "I": 4, "q": 8, "Q": 8}


class SegmentError(Exception):
    """A segment file is structurally unusable (bad magic, header, spec)."""


class SegmentChecksumError(SegmentError):
    """A segment file failed checksum verification (truncated or flipped)."""


def _pad(length: int) -> int:
    return (-length) % _ALIGN


def _n_chunks(length: int) -> int:
    return -(-length // CHUNK_BYTES)


def chunk_digests(data) -> bytes:
    """The chunk-digest list of a blob's bytes."""
    view = memoryview(data).cast("B")
    return b"".join(
        sha256(view[lo : lo + CHUNK_BYTES]).digest()
        for lo in range(0, len(view), CHUNK_BYTES)
    )


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
        lists = []
        offset = digests = 0
        for name, kind, typecode, data in self._blobs:
            listed = chunk_digests(data)
            lists.append(listed)
            specs.append(
                {
                    "name": name,
                    "kind": kind,
                    "typecode": typecode,
                    "offset": offset,
                    "length": len(data),
                    "digests": digests,
                    "digests_sha256": sha256(listed).hexdigest(),
                }
            )
            offset += len(data) + _pad(len(data))
            digests += len(listed)
        header = json.dumps(
            {
                "table": self.table,
                "blobs": specs,
                "meta": self.meta,
                "digest_bytes": digests,
                "payload_bytes": offset,
            },
            sort_keys=True,
        ).encode("utf-8")
        head = MAGIC + len(header).to_bytes(_LENGTH_BYTES, "big") + header
        head += sha256(head).digest()
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as handle:
            # Align the digest table and the payload (the reader assumes it).
            handle.write(head + b"\0" * _pad(len(head)))
            for listed in lists:
                handle.write(listed)
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
    for old in _OLD_MAGICS:
        if prefix[: len(old)] == old:
            raise SegmentError(
                f"{path}: a {old.decode().strip()} file, which this version no "
                "longer reads; rewrite it ('repro-hunt segments write' for a "
                "bundle, 'repro-hunt epoch delta' for a delta)"
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
    if not isinstance(header, dict) or not {
        "blobs", "digest_bytes", "payload_bytes"
    } <= header.keys():
        raise SegmentError(f"{path}: malformed header")
    for spec in header["blobs"]:
        if (
            spec["offset"] + spec["length"] > header["payload_bytes"]
            or spec["digests"] + _DIGEST_BYTES * _n_chunks(spec["length"])
            > header["digest_bytes"]
        ):
            raise SegmentError(f"{path}: blob {spec['name']!r} overruns the file")
    head_end = header_end + _DIGEST_BYTES
    expected = (
        head_end + _pad(head_end) + header["digest_bytes"] + header["payload_bytes"]
    )
    if size != expected:
        raise SegmentChecksumError(
            f"{path}: segment is {size} bytes, its header says {expected}"
        )
    return header, head_end


class Segment:
    """One memory-mapped segment file whose blobs verify chunk by chunk,
    on the first read that covers each chunk."""

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
        #: Per blob: its checked chunk-digest list and one flag per chunk.
        self._lists: dict[str, bytes] = {}
        self._checked: dict[str, bytearray] = {}
        self._verified: set[str] = set()
        digest_start = head_end + _pad(head_end)
        data_start = digest_start + header["digest_bytes"]
        for spec in header["blobs"]:
            spec = dict(spec)
            spec["offset"] += data_start
            spec["digests"] += digest_start
            spec["chunks"] = _n_chunks(spec["length"])
            self._specs[spec["name"]] = spec
        self._digest_end = data_start

    @classmethod
    def open(cls, path: str | Path) -> "Segment":
        """Map a segment after checking its header and length (not its
        blobs: each chunk verifies on the first read that covers it)."""
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

    def _reads(self, lo: int, hi: int) -> Iterator[bytes]:
        """``[lo, hi)`` of the file, in bounded reads off the descriptor."""
        fd = self._handle.fileno()
        while lo < hi:
            chunk = _pread(fd, min(_READ_BYTES, hi - lo), lo, self.path)
            yield chunk
            lo += len(chunk)

    def _flags(self, spec: dict[str, Any]) -> bytearray:
        """One flag per chunk of the blob: set once the chunk verified."""
        flags = self._checked.get(spec["name"])
        if flags is None:
            flags = self._checked[spec["name"]] = bytearray(spec["chunks"])
        return flags

    def _chunk_list(self, spec: dict[str, Any]) -> bytes:
        name = spec["name"]
        listed = self._lists.get(name)
        if listed is None:
            lo = spec["digests"]
            listed = b"".join(self._reads(lo, lo + _DIGEST_BYTES * spec["chunks"]))
            if sha256(listed).hexdigest() != spec.get("digests_sha256"):
                raise SegmentChecksumError(
                    f"{self.path}: blob {name!r} chunk digests mismatch"
                )
            self._lists[name] = listed
        return listed

    def _cover(self, spec: dict[str, Any], lo: int, hi: int) -> None:
        """Verify the chunks holding bytes ``[lo, hi)`` of the blob."""
        if lo >= hi or spec["name"] in self._verified:
            return
        flags = self._flags(spec)
        first, last = lo // CHUNK_BYTES, (hi - 1) // CHUNK_BYTES + 1
        while first < last and flags[first]:
            first += 1
        while last > first and flags[last - 1]:
            last -= 1
        if first == last:
            return
        listed = self._chunk_list(spec)
        start = spec["offset"]
        end = min(spec["length"], last * CHUNK_BYTES)
        index = first
        for data in self._reads(start + first * CHUNK_BYTES, start + end):
            view = memoryview(data)
            for at in range(0, len(view), CHUNK_BYTES):
                expected = listed[index * _DIGEST_BYTES : (index + 1) * _DIGEST_BYTES]
                if sha256(view[at : at + CHUNK_BYTES]).digest() != expected:
                    raise SegmentChecksumError(
                        f"{self.path}: blob {spec['name']!r} checksum mismatch "
                        f"in chunk {index}"
                    )
                flags[index] = 1
                index += 1
        if 0 not in flags:
            self._verified.add(spec["name"])

    def _check_padding(self, lo: int, hi: int) -> None:
        for chunk in self._reads(lo, hi):
            if chunk.count(0) != len(chunk):
                raise SegmentChecksumError(f"{self.path}: nonzero padding in [{lo}, {hi})")

    def verify(self) -> None:
        """Check every byte past the header: the digest table, each blob's
        chunks and the zero padding around them."""
        specs = sorted(self._specs.values(), key=lambda s: s["digests"])
        cursor = self._head_end
        self._check_padding(cursor, cursor + _pad(cursor))
        cursor += _pad(cursor)
        for spec in specs:
            if spec["digests"] != cursor:
                raise SegmentError(f"{self.path}: digest table has a gap or overlap")
            cursor += _DIGEST_BYTES * spec["chunks"]
        if cursor != self._digest_end:
            raise SegmentError(f"{self.path}: digest table has a gap or overlap")
        for spec in sorted(specs, key=lambda s: s["offset"]):
            if spec["offset"] < cursor:
                raise SegmentError(f"{self.path}: blob {spec['name']!r} overlaps")
            self._check_padding(cursor, spec["offset"])
            self._cover(spec, 0, spec["length"])
            cursor = spec["offset"] + spec["length"]
        self._check_padding(cursor, len(self._view))

    # -- blob accessors --------------------------------------------------------

    def _spec(self, name: str) -> dict[str, Any]:
        spec = self._specs.get(name)
        if spec is None:
            raise SegmentError(f"{self.path}: no blob named {name!r}")
        return spec

    def _typed(self, name: str) -> tuple[dict[str, Any], str]:
        spec = self._spec(name)
        typecode = spec["typecode"]
        itemsize = _TYPECODES.get(typecode)
        if itemsize is None or spec["length"] % itemsize:
            raise SegmentError(
                f"{self.path}: blob {name!r} is not a {typecode!r} array"
            )
        return spec, typecode

    def blob(self, name: str) -> memoryview:
        """The named blob as a view over the mapping, every chunk verified."""
        spec = self._spec(name)
        self._cover(spec, 0, spec["length"])
        lo = spec["offset"]
        return self._view[lo : lo + spec["length"]]

    def array(self, name: str):
        """The named column as a zero-copy typed view over the mapping,
        every chunk verified."""
        spec, typecode = self._typed(name)
        if spec["length"] == 0:
            return array(typecode)
        return self.blob(name).cast(typecode)

    def items(self, name: str):
        """The named column as a sequence whose reads verify only the
        chunks they cover.  Any read of a blob of one chunk covers all
        of it, so such a blob is verified here and read as a plain
        typed view."""
        spec, typecode = self._typed(name)
        if spec["chunks"] <= 1:
            return self.array(name)
        return BlobItems(self, spec, typecode)

    def pickle(self, name: str) -> Any:
        return pickle.loads(self.blob(name))

    def names(self) -> Iterator[str]:
        return iter(self._specs)

    def spec(self, name: str) -> dict[str, Any]:
        """The blob's spec: ``offset`` and ``length`` of its bytes in the
        file, and ``digests``, the file offset of its ``chunks`` chunk
        digests."""
        return dict(self._spec(name))

    @property
    def bytes_mapped(self) -> int:
        return len(self._view)

    def close(self) -> None:
        self._view.release()
        self._mmap.close()
        self._handle.close()


class BlobItems(Sequence):
    """One array blob's items, each read verifying only its chunks.

    An item read checks one flag and, the first time, hashes the chunk
    holding the item; a slice verifies the chunks it spans and is a
    zero-copy view of exactly that range.  The length comes from the
    header, so ``len()`` reads nothing.
    """

    __slots__ = ("_segment", "_spec", "_items", "_flags", "_itemsize", "_shift", "_n")

    def __init__(self, segment: Segment, spec: dict[str, Any], typecode: str) -> None:
        self._segment = segment
        self._spec = spec
        self._itemsize = _TYPECODES[typecode]
        self._n = spec["length"] // self._itemsize
        lo = spec["offset"]
        raw = segment._view[lo : lo + spec["length"]]
        self._items = raw.cast(typecode) if self._n else array(typecode)
        self._flags = segment._flags(spec)
        self._shift = (CHUNK_BYTES // self._itemsize).bit_length() - 1

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if type(index) is int and index >= 0:
            # The hot path (pool decodes, bisections): one flag test.
            # Past the last chunk the flag read raises IndexError; past
            # the last item inside it, the view does.
            if not self._flags[index >> self._shift]:
                size = self._itemsize
                self._segment._cover(self._spec, index * size, (index + 1) * size)
            return self._items[index]
        if isinstance(index, slice):
            lo, hi, step = index.indices(self._n)
            if step != 1:
                return [self[i] for i in range(lo, hi, step)]
            if lo >= hi:
                return self._items[0:0]
            first, last = lo >> self._shift, (hi - 1) >> self._shift
            if first != last or not self._flags[first]:
                size = self._itemsize
                self._segment._cover(self._spec, lo * size, hi * size)
            return self._items[lo:hi]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("blob index out of range")
        return self[index]

    def __iter__(self):
        return iter(self[0 : self._n])


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
    "CHUNK_BYTES",
    "MAGIC",
    "BlobItems",
    "Segment",
    "SegmentChecksumError",
    "SegmentError",
    "SegmentWriter",
    "chunk_digests",
    "verify_segment",
]
