"""Lazy interned-pool views over segment blobs.

In-RAM tables keep their pools as Python lists; a million-domain segment
cannot afford to materialize a million strings (or tuples of strings) in
every process that maps it.  These sequence views decode one item per
``__getitem__`` straight off the mapping and deliberately do *not*
memoize — a decoded value is transient, so iterating the whole pool
costs allocations but never resident set.  Over a segment they read
through range reads (:meth:`repro.segments.format.Segment.items`), so a
read verifies only the chunks holding the item and ``len()`` of a
multi-chunk pool reads nothing.  Certificates are the one memoized pool
(:class:`CertPool`): each entry decodes once, so one id stays one
object.

Pool ids are first-seen-order positions, identical to the in-RAM build,
so a segment-backed table and its in-RAM twin agree on every interned
id (the differential property suite pins this).  A value finds its id
without decoding the pool by bisecting through the pool's *sorted
order* (:class:`SortedPoolIndex`): the writer stores that permutation
beside each pool, except for a pool that is already sorted (the domain
pool always is), which stores none.

An epoch overlay derives a table without copying its base's pools:
:class:`ExtendedPool` is a base pool followed by the values the delta
appended, and :class:`MergedSortedPool` is the sorted domain pool with
the delta's new names at their sorted positions.

Each pool kind has one byte encoding (:func:`encode_pool`), shared by
the writer, these views and the content digest, which hashes a block of
entries as slices of the encoded buffers (:func:`block_bytes`).
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate, islice
from operator import lt, sub
from typing import Any

from repro.segments.format import Segment, SegmentWriter
from repro.tls.certificate import certificate_from_dict, certificate_to_dict


class StrPool(Sequence):
    """Lazy ``list[str]``: UTF-8 blob + (n+1) offsets."""

    __slots__ = ("_offsets", "_blob")

    def __init__(self, offsets, blob) -> None:
        self._offsets = offsets
        self._blob = blob

    def __len__(self) -> int:
        return len(self._offsets) - 1 if len(self._offsets) else 0

    def __getitem__(self, index: int) -> str:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        lo, hi = self._offsets[index], self._offsets[index + 1]
        return str(self._blob[lo:hi], "utf-8")

    def __iter__(self):
        # One range read per stream, then item reads off the views.
        offsets = self._offsets[0 : len(self._offsets)]
        blob = self._blob[0 : len(self._blob)]
        for i in range(len(self)):
            yield str(blob[offsets[i] : offsets[i + 1]], "utf-8")


class TupleStrPool(Sequence):
    """Lazy ``list[tuple[str, ...]]`` over a flattened :class:`StrPool`."""

    __slots__ = ("_bounds", "_values")

    def __init__(self, bounds, values: StrPool) -> None:
        self._bounds = bounds
        self._values = values

    def __len__(self) -> int:
        return len(self._bounds) - 1 if len(self._bounds) else 0

    def __getitem__(self, index: int):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        lo, hi = self._bounds[index], self._bounds[index + 1]
        values = self._values
        return tuple(values[i] for i in range(lo, hi))


class TupleIntPool(Sequence):
    """Lazy ``list[tuple[int, ...]]`` over a flattened int column."""

    __slots__ = ("_bounds", "_values")

    def __init__(self, bounds, values) -> None:
        self._bounds = bounds
        self._values = values

    def __len__(self) -> int:
        return len(self._bounds) - 1 if len(self._bounds) else 0

    def __getitem__(self, index: int):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        lo, hi = self._bounds[index], self._bounds[index + 1]
        return tuple(self._values[lo:hi])


class CertPool(Sequence):
    """Lazy ``list[Certificate]`` over a :class:`StrPool` of canonical
    JSON certificate dicts, each decoded once on first use."""

    __slots__ = ("_json", "_memo")

    def __init__(self, encoded: StrPool) -> None:
        self._json = encoded
        self._memo: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._json)

    def __getitem__(self, index: int):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        cert = self._memo.get(index)
        if cert is None:
            cert = self._memo[index] = certificate_from_dict(json.loads(self._json[index]))
        return cert


class SortedPoolIndex:
    """``dict.get``-compatible lookup over a pool, by bisection.

    ``order`` lists the pool's ids in ascending value order; ``None``
    means the pool is sorted already.  A lookup costs O(log n)
    transient decodes instead of an n-entry resident dict per process.
    """

    __slots__ = ("_pool", "_order")

    def __init__(self, pool, order=None) -> None:
        self._pool = pool
        self._order = order

    def bisect(self, key) -> int:
        """How many pool values sort before ``key``."""
        pool, order = self._pool, self._order
        lo, hi = 0, len(pool)
        while lo < hi:
            mid = (lo + hi) // 2
            if pool[mid if order is None else order[mid]] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def get(self, key, default=None):
        rank = self.bisect(key)
        if rank < len(self._pool):
            ident = rank if self._order is None else self._order[rank]
            if self._pool[ident] == key:
                return ident
        return default

    def __getitem__(self, key):
        position = self.get(key)
        if position is None:
            raise KeyError(key)
        return position

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self._pool)


def sorted_order(values) -> array | None:
    """The ids of ``values`` (distinct, mutually comparable) in
    ascending value order, or ``None`` when they are in order already."""
    if not isinstance(values, (list, tuple)):
        values = list(values)
    if all(map(lt, values, islice(values, 1, None))):
        return None
    return array("I", sorted(range(len(values)), key=values.__getitem__))


class ExtendedPool(Sequence):
    """A base pool followed by values appended past it.

    Ids below ``len(base)`` read the base (decoding only the entries
    asked for); the rest read ``extra``, which the pool owns.
    """

    __slots__ = ("base", "extra", "_n")

    def __init__(self, base, extra=()) -> None:
        self.base = base
        self.extra = list(extra)
        self._n = len(base)

    def __len__(self) -> int:
        return self._n + len(self.extra)

    def __getitem__(self, index: int):
        if index < 0:
            index += len(self)
        if index < self._n:
            return self.base[index]
        return self.extra[index - self._n]

    def __iter__(self):
        yield from self.base
        yield from self.extra

    def append(self, value) -> None:
        self.extra.append(value)


class MergedSortedPool(Sequence):
    """A sorted pool with a few values inserted at their sorted positions.

    ``names`` are sorted and absent from ``root``; ``root_at[k]`` is how
    many root values sort before ``names[k]``.  A read or a lookup costs
    O(log n) root decodes; the root is never copied.  Compares equal to
    the tuple a rebuild of the same values holds.
    """

    __slots__ = ("root", "names", "root_at", "_at", "_ids", "_root_index")

    def __init__(self, root, names, root_at) -> None:
        self.root = root
        self.names = list(names)
        self.root_at = list(root_at)
        self._at = [at + k for k, at in enumerate(self.root_at)]
        self._ids = dict(zip(self.names, self._at))
        self._root_index = SortedPoolIndex(root)

    def __len__(self) -> int:
        return len(self.root) + len(self.names)

    def __getitem__(self, index: int):
        if index < 0:
            index += len(self)
        k = bisect_left(self._at, index)
        if k < len(self._at) and self._at[k] == index:
            return self.names[k]
        return self.root[index - k]

    def __iter__(self):
        names, root_at = self.names, self.root_at
        k = 0
        for i, value in enumerate(self.root):
            while k < len(names) and root_at[k] == i:
                yield names[k]
                k += 1
            yield value
        yield from names[k:]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def get(self, key, default=None):
        at = self._ids.get(key)
        if at is not None:
            return at
        ident = self._root_index.get(key)
        if ident is None:
            return default
        return ident + bisect_right(self.root_at, ident)


# -- the segment encoding (pool layout convention over format blobs) -----------
#
# One encoding per pool kind, shared by the segment writer, the reader's
# lazy views and the content digest:
#
# * ``str``       -- ``<name>.off`` (n+1 uint64 offsets) + ``<name>.dat``
#                    (the UTF-8 values, concatenated);
# * ``tuple_str`` -- ``<name>.idx`` (n+1 offsets into the flattened
#                    values) + the flattened values as ``<name>.val``
#                    in the ``str`` encoding;
# * ``tuple_int`` -- ``<name>.idx`` + ``<name>.val`` (int64 values);
# * ``int``       -- ``<name>`` (one int64 per entry);
# * ``cert``      -- each certificate's canonical JSON dict, in the
#                    ``str`` encoding.


def _offsets(lengths) -> array:
    return array("Q", accumulate(lengths, initial=0))


def encode_pool(values, kind: str):
    """``values`` in the segment encoding ``kind``, as the view a reader
    maps (an ``int`` pool is its typed array)."""
    if kind == "str":
        encoded = [value.encode("utf-8") for value in values]
        return StrPool(_offsets(map(len, encoded)), b"".join(encoded))
    if kind == "cert":
        return CertPool(
            encode_pool(
                (
                    json.dumps(certificate_to_dict(cert), sort_keys=True, separators=(",", ":"))
                    for cert in values
                ),
                "str",
            )
        )
    items = list(values)
    if kind == "int":
        return array("q", items)
    flat = [value for item in items for value in item]
    bounds = _offsets(map(len, items))
    if kind == "tuple_str":
        return TupleStrPool(bounds, encode_pool(flat, "str"))
    if kind == "tuple_int":
        return TupleIntPool(bounds, array("q", flat))
    raise ValueError(f"unknown pool kind {kind!r}")


def write_pool(writer: SegmentWriter, name: str, view) -> None:
    """Add an encoded pool's blobs (see :func:`encode_pool`)."""
    if isinstance(view, CertPool):
        write_pool(writer, name, view._json)
    elif isinstance(view, StrPool):
        writer.add_array(f"{name}.off", view._offsets)
        writer.add_bytes(f"{name}.dat", view._blob)
    elif isinstance(view, TupleStrPool):
        writer.add_array(f"{name}.idx", view._bounds)
        write_pool(writer, f"{name}.val", view._values)
    elif isinstance(view, TupleIntPool):
        writer.add_array(f"{name}.idx", view._bounds)
        writer.add_array(f"{name}.val", view._values)
    else:
        writer.add_array(name, view)


def read_pool(segment: Segment, name: str, kind: str):
    """The lazy view of one pool a segment stores in encoding ``kind``;
    every read goes through range reads."""
    if kind == "str":
        return StrPool(segment.items(f"{name}.off"), segment.items(f"{name}.dat"))
    if kind == "cert":
        return CertPool(read_pool(segment, name, "str"))
    if kind == "tuple_str":
        return TupleStrPool(
            segment.items(f"{name}.idx"), read_pool(segment, f"{name}.val", "str")
        )
    if kind == "tuple_int":
        return TupleIntPool(segment.items(f"{name}.idx"), segment.items(f"{name}.val"))
    return segment.items(name)


def _lengths(offsets, lo: int, hi: int) -> array:
    return array("Q", map(sub, offsets[lo + 1 : hi + 1], offsets[lo:hi]))


def block_bytes(pool, lo: int, hi: int, kind: str) -> list:
    """Entries ``[lo, hi)`` of ``pool`` in the encoding ``kind``, as byte
    chunks: their lengths, then their payload, stream by stream.

    A mapped view yields slices of its own buffers (no value is
    decoded); a list is encoded first.  An :class:`ExtendedPool` block
    spanning base and appended values yields each stream of both parts
    in turn, so it hashes like the same block of one flat pool.
    """
    if isinstance(pool, ExtendedPool):
        n = len(pool.base)
        parts = []
        if lo < n:
            parts.append(block_bytes(pool.base, lo, min(hi, n), kind))
        if hi > n:
            parts.append(block_bytes(pool.extra, max(lo - n, 0), hi - n, kind))
        return [chunk for stream in zip(*parts) for chunk in stream]
    if isinstance(pool, StrPool):
        offsets = pool._offsets
        return [_lengths(offsets, lo, hi), pool._blob[offsets[lo] : offsets[hi]]]
    if isinstance(pool, TupleStrPool):
        bounds = pool._bounds
        return [
            _lengths(bounds, lo, hi),
            *block_bytes(pool._values, bounds[lo], bounds[hi], "str"),
        ]
    if isinstance(pool, TupleIntPool):
        bounds = pool._bounds
        return [_lengths(bounds, lo, hi), pool._values[bounds[lo] : bounds[hi]]]
    if kind == "int" and not isinstance(pool, (list, tuple)):
        return [pool[lo:hi]]
    return block_bytes(encode_pool(pool[lo:hi], kind), 0, hi - lo, kind)


__all__: list[Any] = [
    "CertPool",
    "ExtendedPool",
    "MergedSortedPool",
    "SortedPoolIndex",
    "StrPool",
    "TupleIntPool",
    "TupleStrPool",
    "block_bytes",
    "encode_pool",
    "read_pool",
    "sorted_order",
    "write_pool",
]
