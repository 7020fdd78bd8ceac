"""Column definitions for the in-memory catalog.

H-Store stores its schema in a catalog that the planner and the partition
estimator consult at run time.  We reproduce the minimum needed by the paper:
typed columns, nullability and default values.  Types are validated when rows
are inserted so that benchmark loaders catch mistakes early.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from ..errors import CatalogError


class ColumnType(Enum):
    """Supported column data types."""

    INTEGER = "integer"
    BIGINT = "bigint"
    FLOAT = "float"
    STRING = "string"
    TIMESTAMP = "timestamp"
    BOOLEAN = "boolean"

    def python_types(self) -> tuple[type, ...]:
        """Return the Python types accepted for values of this column type."""
        try:
            return _PYTHON_TYPES[self]
        except KeyError:  # pragma: no cover - all members covered below
            raise CatalogError(f"unhandled column type {self!r}") from None


#: Accepted Python types per column type (row validation runs for every
#: insert the benchmarks execute, so this lookup must not branch per call).
_PYTHON_TYPES: dict[ColumnType, tuple[type, ...]] = {
    ColumnType.INTEGER: (int,),
    ColumnType.BIGINT: (int,),
    ColumnType.TIMESTAMP: (int,),
    ColumnType.FLOAT: (int, float),
    ColumnType.STRING: (str,),
    ColumnType.BOOLEAN: (bool,),
}


@dataclass(frozen=True)
class Column:
    """A single typed column of a table.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    col_type:
        One of :class:`ColumnType`.
    nullable:
        Whether ``None`` is an acceptable value.
    default:
        Value used when an insert omits the column.
    """

    name: str
    col_type: ColumnType
    nullable: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("column name must be non-empty")
        if not isinstance(self.col_type, ColumnType):
            raise CatalogError(f"col_type must be a ColumnType, got {self.col_type!r}")
        # Exact-class fast path used inline by Table.new_row /
        # Table.validate_update: a value whose concrete class is listed here
        # is valid with a single identity check; anything else (None,
        # bool-for-int, genuine errors) goes through validate_value.
        object.__setattr__(self, "_exact_types", self.col_type.python_types())

    def validate_value(self, value: Any) -> None:
        """Raise :class:`CatalogError` if ``value`` is not valid for this column."""
        if value is None:
            if self.nullable:
                return
            raise CatalogError(f"column {self.name!r} is not nullable")
        accepted = self.col_type.python_types()
        # bool is a subclass of int; do not silently accept booleans for ints.
        if isinstance(value, bool) and self.col_type is not ColumnType.BOOLEAN:
            raise CatalogError(
                f"column {self.name!r} expects {self.col_type.value}, got boolean"
            )
        if not isinstance(value, accepted):
            raise CatalogError(
                f"column {self.name!r} expects {self.col_type.value}, "
                f"got {type(value).__name__} ({value!r})"
            )


def integer(name: str, *, nullable: bool = False, default: Any = None) -> Column:
    """Convenience constructor for an INTEGER column."""
    return Column(name, ColumnType.INTEGER, nullable=nullable, default=default)


def floating(name: str, *, nullable: bool = False, default: Any = None) -> Column:
    """Convenience constructor for a FLOAT column."""
    return Column(name, ColumnType.FLOAT, nullable=nullable, default=default)


def string(name: str, *, nullable: bool = False, default: Any = None) -> Column:
    """Convenience constructor for a STRING column."""
    return Column(name, ColumnType.STRING, nullable=nullable, default=default)
