"""Lazy interned-pool views over segment blobs.

In-RAM tables keep their pools as Python lists; a million-domain segment
cannot afford to materialize a million strings (or tuples of strings) in
every process that maps it.  These sequence views decode one item per
``__getitem__`` straight off the mapping and deliberately do *not*
memoize — a decoded value is transient, so iterating the whole pool
costs allocations but never resident set.

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
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import islice
from operator import lt
from typing import Any

from repro.segments.format import Segment, SegmentWriter


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
        blob = self._blob
        offsets = self._offsets
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


# -- writer/reader helpers (pool layout convention over format blobs) ----------


def _offsets(lengths) -> array:
    out = array("Q", [0])
    total = 0
    for length in lengths:
        total += length
        out.append(total)
    return out


def write_str_pool(writer: SegmentWriter, name: str, values) -> None:
    encoded = [value.encode("utf-8") for value in values]
    writer.add_array(f"{name}.off", _offsets(len(e) for e in encoded))
    writer.add_bytes(f"{name}.dat", b"".join(encoded))


def read_str_pool(segment: Segment, name: str) -> StrPool:
    return StrPool(segment.array(f"{name}.off"), segment.blob(f"{name}.dat"))


def write_tuple_str_pool(writer: SegmentWriter, name: str, items) -> None:
    items = list(items)
    writer.add_array(f"{name}.idx", _offsets(len(item) for item in items))
    flat = [value for item in items for value in item]
    write_str_pool(writer, f"{name}.val", flat)


def read_tuple_str_pool(segment: Segment, name: str) -> TupleStrPool:
    return TupleStrPool(
        segment.array(f"{name}.idx"), read_str_pool(segment, f"{name}.val")
    )


def write_tuple_int_pool(writer: SegmentWriter, name: str, items) -> None:
    items = list(items)
    writer.add_array(f"{name}.idx", _offsets(len(item) for item in items))
    writer.add_array(
        f"{name}.val", array("q", [value for item in items for value in item])
    )


def read_tuple_int_pool(segment: Segment, name: str) -> TupleIntPool:
    return TupleIntPool(segment.array(f"{name}.idx"), segment.array(f"{name}.val"))


__all__: list[Any] = [
    "ExtendedPool",
    "MergedSortedPool",
    "SortedPoolIndex",
    "StrPool",
    "TupleIntPool",
    "TupleStrPool",
    "read_str_pool",
    "read_tuple_int_pool",
    "read_tuple_str_pool",
    "sorted_order",
    "write_str_pool",
    "write_tuple_int_pool",
    "write_tuple_str_pool",
]
