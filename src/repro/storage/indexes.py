"""In-memory index structures for the row store.

Two index kinds are provided:

* :class:`HashIndex` — equality lookups (the common case for OLTP index
  look-ups the paper assumes; "transactions touch a small subset of data
  using index look-ups").
* :class:`OrderedIndex` — a sorted-key index used for the handful of range /
  "latest N" access patterns in the benchmarks (e.g. TPC-C StockLevel and
  OrderStatus).

Indexes map key tuples to lists of row ids within a
:class:`~repro.storage.heap.RowHeap`.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterable, Iterator

from ..errors import StorageError

#: Shared empty bucket returned by read-only misses.
_EMPTY_BUCKET: list[int] = []


class HashIndex:
    """A (possibly non-unique) hash index from key tuples to row ids."""

    def __init__(self, columns: tuple[str, ...], unique: bool = False) -> None:
        if not columns:
            raise StorageError("index requires at least one column")
        self.columns = columns
        self.unique = unique
        self._entries: dict[tuple[Any, ...], list[int]] = {}
        self._values_of = itemgetter(*columns)
        self._single_column = len(columns) == 1

    def key_of(self, row: dict[str, Any]) -> tuple[Any, ...]:
        values = self._values_of(row)
        # itemgetter of one column returns the bare value, not a 1-tuple.
        return (values,) if self._single_column else values

    def check_unique(self, key: tuple[Any, ...]) -> None:
        """Raise if storing one more row under ``key`` would break uniqueness.

        The heap asks every index *before* its first mutation, so a rejected
        insert or update leaves rows and indexes exactly as they were.
        """
        if self.unique and key in self._entries:
            raise self._violation(key)

    def _violation(self, key: tuple[Any, ...]) -> StorageError:
        return StorageError(f"unique index violation on {self.columns}: {key!r}")

    def insert(self, key: tuple[Any, ...], row_id: int) -> None:
        bucket = self._entries.setdefault(key, [])
        if self.unique and bucket:
            raise self._violation(key)
        bucket.append(row_id)

    def remove(self, key: tuple[Any, ...], row_id: int) -> None:
        bucket = self._entries.get(key)
        if not bucket or row_id not in bucket:
            raise StorageError(f"row {row_id} not present for key {key!r}")
        bucket.remove(row_id)
        if not bucket:
            del self._entries[key]

    def lookup(self, key: tuple[Any, ...]) -> list[int]:
        return list(self._entries.get(key, ()))

    def lookup_readonly(self, key: tuple[Any, ...]):
        """Bucket for ``key`` without the defensive copy.

        The returned sequence is live index state — callers must not mutate
        it or the heap while holding it (the read-only SELECT path).
        """
        return self._entries.get(key, _EMPTY_BUCKET)

    def contains(self, key: tuple[Any, ...]) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    def keys(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._entries)


class OrderedIndex:
    """A sorted-key index supporting range scans.

    Keys are kept in a sorted list; each key maps to the row ids carrying it.
    This is a simple reproduction of a B-tree's leaf level, adequate for the
    small per-partition data volumes of the benchmarks.
    """

    def __init__(self, columns: tuple[str, ...]) -> None:
        if not columns:
            raise StorageError("index requires at least one column")
        self.columns = columns
        self._keys: list[tuple[Any, ...]] = []
        self._entries: dict[tuple[Any, ...], list[int]] = {}

    def key_of(self, row: dict[str, Any]) -> tuple[Any, ...]:
        return tuple(row[c] for c in self.columns)

    def insert(self, key: tuple[Any, ...], row_id: int) -> None:
        if key not in self._entries:
            bisect.insort(self._keys, key)
            self._entries[key] = []
        self._entries[key].append(row_id)

    def remove(self, key: tuple[Any, ...], row_id: int) -> None:
        bucket = self._entries.get(key)
        if not bucket or row_id not in bucket:
            raise StorageError(f"row {row_id} not present for key {key!r}")
        bucket.remove(row_id)
        if not bucket:
            del self._entries[key]
            index = bisect.bisect_left(self._keys, key)
            if index < len(self._keys) and self._keys[index] == key:
                del self._keys[index]

    def lookup(self, key: tuple[Any, ...]) -> list[int]:
        return list(self._entries.get(key, ()))

    def lookup_readonly(self, key: tuple[Any, ...]):
        """Bucket for ``key`` without the defensive copy (read-only use)."""
        return self._entries.get(key, _EMPTY_BUCKET)

    def range(
        self,
        low: tuple[Any, ...] | None = None,
        high: tuple[Any, ...] | None = None,
        *,
        reverse: bool = False,
    ) -> Iterator[int]:
        """Yield row ids whose keys fall in ``[low, high]`` (inclusive)."""
        start = 0 if low is None else bisect.bisect_left(self._keys, low)
        stop = len(self._keys) if high is None else bisect.bisect_right(self._keys, high)
        selected: Iterable[tuple[Any, ...]] = self._keys[start:stop]
        if reverse:
            selected = reversed(list(selected))
        for key in selected:
            yield from self._entries[key]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())
