"""Row heaps: the per-partition storage of a single table.

Rows are plain dicts stored in a slotted list; a monotonically increasing row
id addresses each slot.  The heap maintains the table's primary-key hash
index plus any declared secondary indexes, and exposes the low-level
insert/update/delete operations the statement executor builds on.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..errors import DuplicateKeyError, StorageError
from ..catalog.table import Table
from .indexes import HashIndex, UniqueIndex

#: Shared empty row list for primary-key misses.
_NO_ROWS: list = []

#: Either index kind; both offer the same maintenance and lookup methods.
Index = HashIndex | UniqueIndex


class RowHeap:
    """All rows of one table stored on one partition."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_row_id = 0
        self._primary: UniqueIndex | None = None
        if table.primary_key:
            self._primary = UniqueIndex(tuple(table.primary_key))
        self._secondary: dict[str, Index] = {}
        for index in table.secondary_indexes:
            kind = UniqueIndex if index.unique else HashIndex
            self._secondary[index.name] = kind(tuple(index.columns))
        #: Non-unique indexes over proper prefixes of the primary key, built
        #: lazily the first time a predicate covers that prefix (OLTP code
        #: like TPC-C's ORDER_LINE or TATP's CALL_FORWARDING constantly looks
        #: rows up by a PK prefix, which would otherwise be a full scan).
        #: Keyed by prefix length; maintained by every mutation thereafter.
        self._prefix: dict[int, HashIndex] = {}
        #: Precomputed column sets consulted on every ``find``.
        self._pk_columns: tuple[str, ...] = tuple(table.primary_key or ())
        self._pk_set: frozenset[str] = frozenset(self._pk_columns)
        self._secondary_sets: tuple[tuple[Index, frozenset[str]], ...] = tuple(
            (index, frozenset(index.columns)) for index in self._secondary.values()
        )
        #: Every index every mutation maintains — primary first, then the
        #: secondaries, then prefix indexes as they get built — and every
        #: column one of them covers (prefix indexes cover primary-key
        #: columns only): an update assigning none of those moves no entry.
        self._indexes: list[Index] = [
            *([self._primary] if self._primary is not None else ()), *self._secondary.values()
        ]
        self._indexed_columns: frozenset[str] = self._pk_set.union(
            *(column_set for _, column_set in self._secondary_sets)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over copies of every live row (order unspecified)."""
        for row in self._rows.values():
            yield dict(row)

    def row_ids(self) -> Iterator[int]:
        return iter(self._rows.keys())

    def get(self, row_id: int) -> dict[str, Any]:
        try:
            return dict(self._rows[row_id])
        except KeyError:
            raise StorageError(f"no row with id {row_id} in table {self.table.name!r}") from None

    def row(self, row_id: int) -> dict[str, Any]:
        """The *live* row dict — read-only, executor fast path only."""
        try:
            return self._rows[row_id]
        except KeyError:
            raise StorageError(f"no row with id {row_id} in table {self.table.name!r}") from None

    # ------------------------------------------------------------------
    # Primary-key fast path (the executor's compiled steps)
    # ------------------------------------------------------------------
    def pk_row_ids(self, key: tuple[Any, ...]) -> tuple[int, ...]:
        """Row ids carrying an exact primary-key tuple: ``(row_id,)`` or ``()``.

        Immutable, so callers may update or delete the rows while iterating.
        """
        if self._primary is None:
            raise StorageError(f"table {self.table.name!r} has no primary key")
        return self._primary.lookup_readonly(key)

    def pk_rows(self, key: tuple[Any, ...]) -> list[dict[str, Any]]:
        """Live row dicts for an exact primary-key tuple (read-only)."""
        if self._primary is None:
            raise StorageError(f"table {self.table.name!r} has no primary key")
        row_id = self._primary.get(key)
        return _NO_ROWS if row_id is None else [self._rows[row_id]]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, values: dict[str, Any], *, validate: bool = True) -> int:
        """Insert a row and return its row id.

        ``values`` is validated against the table and completed with
        defaults.  ``validate=False`` is for callers that already hold a
        full, type-checked row (the statement executor's compiled row plan,
        the loader): the heap stores that dict itself, without a second pass.

        Every unique index is consulted before the first mutation, so a
        rejected insert leaves the heap untouched.
        """
        row = self.table.new_row(values) if validate else values
        keys = []
        for index in self._indexes:
            key = index.key_of(row)
            if index is not self._primary:
                index.check_unique(key)
            elif index.contains(key):
                raise DuplicateKeyError(self.table.name, key)
            keys.append(key)
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = row
        for index, key in zip(self._indexes, keys):
            index.insert(key, row_id)
        return row_id

    def insert_raw(self, row: dict[str, Any], row_id: int) -> None:
        """Re-insert a previously deleted row under its original id (undo).

        Like :meth:`insert`, every unique index is consulted first: a rejected
        re-insert leaves the heap untouched.
        """
        if row_id in self._rows:
            raise StorageError(f"row id {row_id} already present")
        keys = [index.key_of(row) for index in self._indexes]
        for index, key in zip(self._indexes, keys):
            index.check_unique(key)
        self._rows[row_id] = dict(row)
        self._next_row_id = max(self._next_row_id, row_id + 1)
        for index, key in zip(self._indexes, keys):
            index.insert(key, row_id)

    def update(
        self,
        row_id: int,
        assignments: dict[str, Any],
        *,
        validate: bool = True,
        capture_before: bool = True,
    ) -> dict[str, Any] | None:
        """Apply column assignments to a row, returning its *previous* image.

        ``validate=False`` skips the per-call type validation; callers (the
        statement executor) use it after validating a shared assignment dict
        once for a whole multi-row update.  ``capture_before=False`` skips
        building the previous-image copy and returns ``None`` — for updates
        whose undo logging is disabled (OP3), where the image would be
        dropped anyway.

        Only an index whose key the assignments actually move is re-keyed,
        and every such move is checked against unique indexes before the row
        is touched: the update applies completely or not at all.
        """
        current = self._rows.get(row_id)
        if current is None:
            raise StorageError(f"no row with id {row_id} in table {self.table.name!r}")
        if validate:
            self.table.validate_update(assignments)
        moves = None
        if not self._indexed_columns.isdisjoint(assignments):
            moves = self._index_moves(current, assignments)
        before = dict(current) if capture_before else None
        current.update(assignments)
        if moves:
            for index, old_key, new_key in moves:
                index.remove(old_key, row_id)
                index.insert(new_key, row_id)
        return before

    def _index_moves(
        self, current: dict[str, Any], assignments: dict[str, Any]
    ) -> list[tuple[Index, tuple, tuple]]:
        """``(index, old key, new key)`` for each index entry the assignments move."""
        updated = {**current, **assignments}
        moves = []
        for index in self._indexes:
            old_key = index.key_of(current)
            new_key = index.key_of(updated)
            if new_key != old_key:
                index.check_unique(new_key)
                moves.append((index, old_key, new_key))
        return moves

    def delete(self, row_id: int) -> dict[str, Any]:
        """Delete a row, returning its previous image."""
        if row_id not in self._rows:
            raise StorageError(f"no row with id {row_id} in table {self.table.name!r}")
        row = self._rows.pop(row_id)
        for index in self._indexes:
            index.remove(index.key_of(row), row_id)
        return row

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def find(self, predicate: dict[str, Any]) -> list[int]:
        """Return the row ids matching conjunctive equality predicates.

        Uses the primary-key index when the predicate covers it, a secondary
        index when one matches a subset of the predicate columns, a lazily
        built primary-key *prefix* index when the predicate covers a proper
        prefix of the primary key, and falls back to a sequential scan
        otherwise.
        """
        if not predicate:
            return list(self._rows.keys())
        candidates, exact = self._candidate_ids(predicate)
        if exact:
            # The index key covers every predicate column, so the candidates
            # already satisfy the predicate — no per-row verification needed.
            return candidates
        rows = self._rows
        matching = []
        for row_id in candidates:
            row = rows.get(row_id)
            if row is None:
                continue
            if all(row.get(column) == value for column, value in predicate.items()):
                matching.append(row_id)
        return matching

    def _candidate_ids(self, predicate: dict[str, Any]) -> tuple[list[int], bool]:
        """Candidate row ids plus whether they need no further verification."""
        predicate_columns = predicate.keys()
        primary_key = self._pk_columns
        if self._primary is not None and self._pk_set <= predicate_columns:
            key = tuple(predicate[c] for c in primary_key)
            return self._primary.lookup(key), len(predicate) == len(primary_key)
        for index, column_set in self._secondary_sets:
            if column_set <= predicate_columns:
                key = tuple(predicate[c] for c in index.columns)
                return index.lookup(key), len(predicate) == len(index.columns)
        if primary_key:
            length = 0
            for column in primary_key:
                if column not in predicate_columns:
                    break
                length += 1
            if length > 0:
                index = self._prefix_index(length)
                key = tuple(predicate[c] for c in primary_key[:length])
                return index.lookup(key), len(predicate) == length
        return list(self._rows.keys()), False

    def _prefix_index(self, length: int) -> HashIndex:
        """Get (or lazily build) the index over the first ``length`` PK columns.

        The build scans rows in storage order so lookups return ids in the
        same order the sequential-scan fallback used to produce.
        """
        index = self._prefix.get(length)
        if index is None:
            index = HashIndex(self._pk_columns[:length])
            for row_id, row in self._rows.items():
                index.insert(index.key_of(row), row_id)
            self._prefix[length] = index
            self._indexes.append(index)
        return index

    def _find_readonly(self, predicate: dict[str, Any]) -> list[int]:
        """Like :meth:`find` but may return a live index bucket.

        Only safe for callers that do not mutate the heap while holding the
        result (SELECT / aggregate paths); :meth:`find` itself always copies
        because the write paths delete/update rows while iterating.
        """
        if not predicate:
            return list(self._rows.keys())
        predicate_columns = predicate.keys()
        primary_key = self._pk_columns
        if self._primary is not None and self._pk_set <= predicate_columns:
            if len(predicate) == len(primary_key):
                key = tuple(predicate[c] for c in primary_key)
                return self._primary.lookup_readonly(key)
        else:
            for index, column_set in self._secondary_sets:
                if column_set <= predicate_columns and len(predicate) == len(index.columns):
                    key = tuple(predicate[c] for c in index.columns)
                    return index.lookup_readonly(key)
        return self.find(predicate)

    def select(
        self,
        predicate: dict[str, Any],
        *,
        output_columns: tuple[str, ...] = (),
        order_by: tuple[str, bool] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Run a SELECT against this heap and return projected row copies."""
        row_ids = self._find_readonly(predicate)
        if not row_ids:
            # Most partitions of a broadcast hold no match.
            return []
        rows = self._rows
        found = [rows[row_id] for row_id in row_ids]
        if order_by is not None:
            column, descending = order_by
            found = sorted(found, key=lambda r: r[column], reverse=descending)
        if limit is not None:
            found = found[:limit]
        if output_columns:
            return [{c: row[c] for c in output_columns} for row in found]
        return [dict(row) for row in found]
