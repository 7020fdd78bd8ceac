"""Table definitions for the in-memory catalog.

A table declares its columns, primary key, the column it is horizontally
partitioned on (if any) and whether it is replicated on every partition.
Replicated tables (e.g. the TPC-C ``ITEM`` table) can be read locally by any
transaction without making the transaction distributed, which matters for the
partition estimates computed by the Markov-model builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import CatalogError, UnknownColumnError
from .column import Column


@dataclass(frozen=True)
class SecondaryIndex:
    """A named secondary index over one or more columns of a table."""

    name: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass
class Table:
    """A relational table definition.

    Parameters
    ----------
    name:
        Table name, unique within a schema.
    columns:
        Ordered column definitions.
    primary_key:
        Names of the primary-key columns (in order).  May be empty for
        history-style append-only tables.
    partition_column:
        The column whose value determines which partition a row lives on.
        ``None`` for replicated tables.
    replicated:
        If true, every partition stores a full copy of the table and reads
        are always local.
    secondary_indexes:
        Optional secondary indexes maintained by the storage layer.
    """

    name: str
    columns: Sequence[Column]
    primary_key: Sequence[str] = ()
    partition_column: str | None = None
    replicated: bool = False
    secondary_indexes: Sequence[SecondaryIndex] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("table name must be non-empty")
        if not self.columns:
            raise CatalogError(f"table {self.name!r} must have at least one column")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise CatalogError(f"table {self.name!r} has duplicate column names")
        self.columns = tuple(self.columns)
        self.primary_key = tuple(self.primary_key)
        self.secondary_indexes = tuple(self.secondary_indexes)
        self._columns_by_name = {c.name: c for c in self.columns}
        for key_col in self.primary_key:
            if key_col not in self._columns_by_name:
                raise UnknownColumnError(self.name, key_col)
        if self.replicated and self.partition_column is not None:
            raise CatalogError(
                f"table {self.name!r} cannot be both replicated and partitioned"
            )
        if self.partition_column is not None and self.partition_column not in self._columns_by_name:
            raise UnknownColumnError(self.name, self.partition_column)
        for index in self.secondary_indexes:
            for col in index.columns:
                if col not in self._columns_by_name:
                    raise UnknownColumnError(self.name, col)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        try:
            return self._columns_by_name[name]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def has_column(self, name: str) -> bool:
        return name in self._columns_by_name

    # ------------------------------------------------------------------
    # Row helpers
    # ------------------------------------------------------------------
    def new_row(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Build and validate a full row dict from ``values``.

        Missing columns take their declared default (or ``None`` when
        nullable).  Unknown keys raise :class:`UnknownColumnError`.
        """
        for key in values:
            if key not in self._columns_by_name:
                raise UnknownColumnError(self.name, key)
        row: dict[str, Any] = {}
        for column in self.columns:
            if column.name in values:
                value = values[column.name]
            elif column.default is not None:
                value = column.default
            elif column.nullable:
                value = None
            else:
                raise CatalogError(
                    f"insert into {self.name!r} missing required column {column.name!r}"
                )
            if type(value) not in column._exact_types:
                # Slow path covers None/nullability, bool-vs-int and errors.
                column.validate_value(value)
            row[column.name] = value
        return row

    def validate_update(self, assignments: Mapping[str, Any]) -> None:
        """Validate an UPDATE's column assignments against this table."""
        columns = self._columns_by_name
        for name, value in assignments.items():
            column = columns.get(name)
            if column is None:
                raise UnknownColumnError(self.name, name)
            if type(value) not in column._exact_types:
                column.validate_value(value)
