"""Row heaps: the per-partition storage of a single table.

Rows are plain dicts stored in a slotted list; a monotonically increasing row
id addresses each slot.  The heap maintains the table's primary-key hash
index plus any declared secondary indexes, and exposes the low-level
insert/update/delete operations the statement executor builds on.
"""

from __future__ import annotations

from operator import itemgetter
from typing import AbstractSet, Any, Callable, Iterator, NamedTuple, Sequence

from ..errors import DuplicateKeyError, StorageError
from ..catalog.table import Table
from .indexes import HashIndex, UniqueIndex

#: Either index kind; both offer the same maintenance and probe methods.
Index = HashIndex | UniqueIndex


class AccessPath(NamedTuple):
    """How an equality predicate finds its rows (:meth:`RowHeap.access_path`)."""

    #: The probed index's columns, in index order; ``()`` scans every row.
    key_columns: tuple[str, ...]
    #: The key binds every predicate column: no residual check is needed.
    exact: bool
    #: A probe yields one row id (or ``None``), not a bucket.
    unique: bool


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
        #: Precomputed column sets the planner (:meth:`access_path`) consults.
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
    def access_path(self, columns: AbstractSet[str]) -> AccessPath:
        """Plan how a conjunctive equality predicate over ``columns`` finds
        its rows — the one planner: the executor compiles it into each step,
        :meth:`find` runs it per call.  In order of preference: the primary
        key, the first secondary index the predicate covers, a lazily built
        primary-key *prefix* index, a scan.  The plan depends on the table
        alone, so it holds on every partition."""
        primary_key = self._pk_columns
        if self._primary is not None and self._pk_set <= columns:
            return AccessPath(primary_key, len(columns) == len(primary_key), True)
        for index, column_set in self._secondary_sets:
            if column_set <= columns:
                exact = len(columns) == len(index.columns)
                return AccessPath(index.columns, exact, isinstance(index, UniqueIndex))
        length = 0
        while length < len(primary_key) and primary_key[length] in columns:
            length += 1
        if length:
            return AccessPath(primary_key[:length], len(columns) == length, False)
        return AccessPath((), not columns, False)

    def prober(self, path: AccessPath) -> Callable[[tuple[Any, ...] | None], Any]:
        """``key -> entry`` for ``path`` on this heap: a row id (unique paths)
        or a live bucket, ``None`` on a miss; a scan's returns every row id.
        Builds the prefix index ``path`` names if this heap has none yet."""
        columns = path.key_columns
        if not columns:
            rows = self._rows
            return lambda _key: rows.keys()
        if columns == self._pk_columns:
            return self._primary.prober()
        for index in self._secondary.values():
            if index.columns == columns:
                return index.prober()
        return self._prefix_index(len(columns)).prober()

    def match(self, probe, key, residual: Sequence[tuple[str, Any]], unique: bool) -> list[int]:
        """Row ids ``probe(key)`` finds whose rows also equal every ``(column,
        value)`` of ``residual``: a new list (callers may write the rows while
        iterating it), in index order — storage order for a scan."""
        entry = probe(key)
        if entry is None:
            return []
        if unique:
            entry = (entry,)
        if not residual:
            return list(entry)
        rows = self._rows
        return [
            row_id for row_id in entry
            if all(rows[row_id].get(column) == value for column, value in residual)
        ]

    def find(self, predicate: dict[str, Any]) -> list[int]:
        """Row ids matching conjunctive equality predicates (ad hoc; the
        executor compiles the same plan into its steps)."""
        path = self.access_path(predicate.keys())
        key = tuple(predicate[column] for column in path.key_columns)
        residual = () if path.exact else tuple(predicate.items())
        return self.match(self.prober(path), key, residual, path.unique)

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

    def pk_rows(self, key: tuple[Any, ...]) -> list[dict[str, Any]]:
        """Live row dicts for an exact primary-key tuple (ad hoc, read-only)."""
        rows = self._rows
        return [rows[row_id] for row_id in self.match(self._primary.prober(), key, (), True)]

    def select(
        self,
        predicate: dict[str, Any],
        *,
        output_columns: tuple[str, ...] = (),
        order_by: tuple[str, bool] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Run an ad-hoc SELECT against this heap and return projected row copies."""
        rows = self._rows
        found = [rows[row_id] for row_id in self.find(predicate)]
        if order_by is not None:
            found.sort(key=itemgetter(order_by[0]), reverse=order_by[1])
        if limit is not None:
            del found[limit:]
        if not output_columns:
            return [dict(row) for row in found]
        projected_rows = []
        for row in found:
            projected = {}
            for column in output_columns:
                projected[column] = row[column]
            projected_rows.append(projected)
        return projected_rows
