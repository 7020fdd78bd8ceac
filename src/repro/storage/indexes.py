"""In-memory hash indexes for the row store.

Every index serves equality lookups (the common case for OLTP index look-ups
the paper assumes; "transactions touch a small subset of data using index
look-ups") from key tuples to row ids within a
:class:`~repro.storage.heap.RowHeap`; ORDER BY and LIMIT are applied to the
matched rows.  Two kinds are provided:

* :class:`UniqueIndex` — primary keys and unique secondary indexes.  Each
  key maps straight to its one row id, so the index holds only keys and ints:
  nothing the cycle collector has to scan.
* :class:`HashIndex` — non-unique secondary indexes and the heap's lazily
  built primary-key prefix indexes.  Each key maps to a list of row ids.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterator

from ..errors import StorageError


class _Index:
    """Key extraction shared by both index kinds."""

    def __init__(self, columns: tuple[str, ...]) -> None:
        if not columns:
            raise StorageError("index requires at least one column")
        self.columns = columns
        self._entries: dict[tuple[Any, ...], Any] = {}
        self._values_of = itemgetter(*columns)
        self._single_column = len(columns) == 1

    def key_of(self, row: dict[str, Any]) -> tuple[Any, ...]:
        values = self._values_of(row)
        # itemgetter of one column returns the bare value, not a 1-tuple.
        return (values,) if self._single_column else values

    def contains(self, key: tuple[Any, ...]) -> bool:
        return key in self._entries

    def prober(self) -> Callable[[tuple[Any, ...]], Any]:
        """The raw ``key -> entry`` lookup compiled read paths call once per
        partition: a row id (:class:`UniqueIndex`) or a live bucket
        (:class:`HashIndex`), ``None`` on a miss.  A bucket must not be held
        across a write to this index."""
        return self._entries.get

    def keys(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._entries)

    def _missing(self, key: tuple[Any, ...], row_id: int) -> StorageError:
        return StorageError(f"row {row_id} not present for key {key!r}")


class UniqueIndex(_Index):
    """A unique hash index: each key maps to the one row id carrying it."""

    def check_unique(self, key: tuple[Any, ...]) -> None:
        """Raise if storing one more row under ``key`` would break uniqueness.

        The heap asks every index *before* its first mutation, so a rejected
        insert or update leaves rows and indexes exactly as they were.
        """
        if key in self._entries:
            raise self._violation(key)

    def _violation(self, key: tuple[Any, ...]) -> StorageError:
        return StorageError(f"unique index violation on {self.columns}: {key!r}")

    def insert(self, key: tuple[Any, ...], row_id: int) -> None:
        if key in self._entries:
            raise self._violation(key)
        self._entries[key] = row_id

    def remove(self, key: tuple[Any, ...], row_id: int) -> None:
        if self._entries.get(key) != row_id:
            raise self._missing(key, row_id)
        del self._entries[key]

    def items(self) -> Iterator[tuple[tuple[Any, ...], tuple[int, ...]]]:
        """``(key, row ids)`` per key, in insertion order."""
        for key, row_id in self._entries.items():
            yield key, (row_id,)

    def __len__(self) -> int:
        return len(self._entries)


class HashIndex(_Index):
    """A non-unique hash index from key tuples to lists of row ids."""

    def check_unique(self, key: tuple[Any, ...]) -> None:
        """A non-unique index admits every key."""

    def insert(self, key: tuple[Any, ...], row_id: int) -> None:
        self._entries.setdefault(key, []).append(row_id)

    def remove(self, key: tuple[Any, ...], row_id: int) -> None:
        bucket = self._entries.get(key)
        if not bucket or row_id not in bucket:
            raise self._missing(key, row_id)
        bucket.remove(row_id)
        if not bucket:
            del self._entries[key]

    def items(self) -> Iterator[tuple[tuple[Any, ...], list[int]]]:
        """``(key, live bucket)`` per key, in insertion order."""
        return iter(self._entries.items())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())
