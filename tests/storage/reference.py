"""Reference index: the list-bucket hash index unique indexes were split from.

:class:`HashIndex` is the index every heap index used to be, verbatim —
one list of row ids per key, ``unique=True`` for primary keys and unique
secondary indexes — plus the public ``items()`` reader the heap invariants
use.  :class:`ReferenceHeap` is a :class:`~repro.storage.heap.RowHeap` whose
primary and secondary indexes are this class, with the ``pk_rows`` that read
a live bucket, and whose ad-hoc ``find`` / ``select`` run the access-path
planner the executor's compiled steps replaced: it re-plans per call from the
bound predicate.  ``tests/property/test_property_indexes.py`` drives both
against the shipped :class:`~repro.storage.UniqueIndex` /
:class:`~repro.storage.HashIndex` pair and the shipped planner.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator

from repro.errors import StorageError
from repro.storage import RowHeap

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
        """Raise if storing one more row under ``key`` would break uniqueness."""
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
        """Bucket for ``key`` without the defensive copy (live index state)."""
        return self._entries.get(key, _EMPTY_BUCKET)

    def contains(self, key: tuple[Any, ...]) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    def keys(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._entries)

    def items(self) -> Iterator[tuple[tuple[Any, ...], list[int]]]:
        return iter(self._entries.items())


class ReferenceHeap(RowHeap):
    """A row heap indexed by the list-bucket :class:`HashIndex` above."""

    def __init__(self, table) -> None:
        super().__init__(table)
        self._primary = HashIndex(tuple(table.primary_key), unique=True)
        self._secondary = {
            index.name: HashIndex(tuple(index.columns), unique=index.unique)
            for index in table.secondary_indexes
        }
        self._secondary_sets = tuple(
            (index, frozenset(index.columns)) for index in self._secondary.values()
        )
        self._indexes = [self._primary, *self._secondary.values()]

    def pk_rows(self, key: tuple[Any, ...]) -> list[dict[str, Any]]:
        bucket = self._primary.lookup_readonly(key)
        return [self._rows[bucket[0]]] if bucket else []

    # -- the per-call planner ---------------------------------------------
    def find(self, predicate: dict[str, Any]) -> list[int]:
        if not predicate:
            return list(self._rows.keys())
        candidates, exact = self._candidate_ids(predicate)
        if exact:
            return candidates
        rows = self._rows
        return [
            row_id for row_id in candidates
            if all(rows[row_id].get(column) == value for column, value in predicate.items())
        ]

    def _candidate_ids(self, predicate: dict[str, Any]) -> tuple[list[int], bool]:
        """Candidate row ids (a copy of one bucket) plus whether they need no
        further verification: primary key, then the first covering
        secondary index, then a primary-key prefix, then a scan."""
        predicate_columns = predicate.keys()
        primary_key = self._pk_columns
        if self._pk_set <= predicate_columns:
            index, length = self._primary, len(primary_key)
        else:
            index = next(
                (index for index, columns in self._secondary_sets if columns <= predicate_columns),
                None,
            )
            length = 0 if index is None else len(index.columns)
            if index is None:
                while length < len(primary_key) and primary_key[length] in predicate_columns:
                    length += 1
                if length == 0:
                    return list(self._rows.keys()), False
                index = self._prefix_index(length)
        key = tuple(predicate[column] for column in index.columns)
        return list(index._entries.get(key, ())), len(predicate) == length

    def select(self, predicate, *, output_columns=(), order_by=None, limit=None):
        found = [self._rows[row_id] for row_id in self.find(predicate)]
        if order_by is not None:
            column, descending = order_by
            found = sorted(found, key=lambda r: r[column], reverse=descending)
        if limit is not None:
            found = found[:limit]
        if output_columns:
            return [{c: row[c] for c in output_columns} for row in found]
        return [dict(row) for row in found]
