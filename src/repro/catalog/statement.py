"""Parameterized statement (query) definitions.

A stored procedure contains a fixed set of *named*, *parameterized* queries
(Fig. 2 of the paper).  Because the full SQL surface is irrelevant to the
paper's contribution — what matters is *which partitions a query touches* and
*whether it reads or writes* — statements are declared structurally:

* the target table,
* the operation (SELECT / INSERT / UPDATE / DELETE),
* equality predicates mapping columns to parameter positions,
* for INSERT, the mapping from columns to parameter positions,
* for UPDATE, the SET assignments mapping columns to parameter positions or
  to arithmetic deltas.

From this structure the engine can (a) execute the query against the
in-memory row store and (b) compute the set of partitions it accesses, which
is the "internal API" the Markov-model builder relies on (paper ref [5]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from ..errors import CatalogError
from ..types import QueryType


class Operation(Enum):
    """The kind of data access a statement performs."""

    SELECT = "select"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"

    @property
    def is_write(self) -> bool:
        return self is not Operation.SELECT


@dataclass(frozen=True)
class ParameterRef:
    """Reference to the i-th parameter of a statement invocation."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise CatalogError("parameter index must be non-negative")


def param(index: int) -> ParameterRef:
    """Shorthand used by benchmark schema definitions: ``param(0)``."""
    return ParameterRef(index)


@dataclass(frozen=True)
class ColumnDelta:
    """An UPDATE assignment of the form ``col = col + parameters[index]``."""

    index: int


def delta(index: int) -> ColumnDelta:
    """Shorthand for an additive UPDATE assignment bound to a parameter."""
    return ColumnDelta(index)


#: Binding-plan kinds produced by :meth:`Statement._compile`.
BIND_LITERAL = 0
BIND_PARAM = 1
BIND_DELTA = 2


def missing_parameter(max_param: int, supplied: int) -> CatalogError:
    """The error every binding site raises for a too-short parameter list."""
    return CatalogError(
        f"statement expected parameter index {max_param} but only "
        f"{supplied} parameters were supplied"
    )


@dataclass(frozen=True)
class Statement:
    """A single parameterized query belonging to a stored procedure.

    Parameters
    ----------
    name:
        Unique name inside the owning procedure (e.g. ``"GetWarehouse"``).
    table:
        Target table name.
    operation:
        SELECT / INSERT / UPDATE / DELETE.
    where:
        Equality predicates: mapping from column name to either a
        :class:`ParameterRef` (value supplied at run time) or a literal.
        All predicates are conjunctive.
    insert_values:
        For INSERT only: mapping from column name to :class:`ParameterRef`
        or literal.
    set_values:
        For UPDATE only: mapping from column name to :class:`ParameterRef`,
        :class:`ColumnDelta` or literal.
    output_columns:
        For SELECT: the columns returned (empty means all columns).
    limit:
        Optional LIMIT for SELECT.
    order_by:
        Optional ``(column, descending)`` ordering for SELECT.
    """

    name: str
    table: str
    operation: Operation
    where: Mapping[str, Any] = field(default_factory=dict)
    insert_values: Mapping[str, Any] = field(default_factory=dict)
    set_values: Mapping[str, Any] = field(default_factory=dict)
    output_columns: tuple[str, ...] = ()
    limit: int | None = None
    order_by: tuple[str, bool] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("statement name must be non-empty")
        if not self.table:
            raise CatalogError(f"statement {self.name!r} must name a table")
        object.__setattr__(self, "where", dict(self.where))
        object.__setattr__(self, "insert_values", dict(self.insert_values))
        object.__setattr__(self, "set_values", dict(self.set_values))
        if self.operation is Operation.INSERT and not self.insert_values:
            raise CatalogError(f"INSERT statement {self.name!r} needs insert_values")
        if self.operation is Operation.UPDATE and not self.set_values:
            raise CatalogError(f"UPDATE statement {self.name!r} needs set_values")
        if self.operation is not Operation.INSERT and self.insert_values:
            raise CatalogError(f"statement {self.name!r}: insert_values only valid for INSERT")
        if self.operation is not Operation.UPDATE and self.set_values:
            raise CatalogError(f"statement {self.name!r}: set_values only valid for UPDATE")
        # Statements are bound for every query the engine executes, so the
        # ParameterRef/ColumnDelta classification is resolved once here into
        # flat ``((column, kind, payload), ...), max_param`` plans — what the
        # engine's per-procedure step table is compiled from.
        object.__setattr__(
            self,
            "_query_type",
            QueryType.WRITE if self.operation.is_write else QueryType.READ,
        )
        object.__setattr__(self, "where_plan", self._compile(self.where))
        object.__setattr__(self, "insert_plan", self._compile(self.insert_values))
        object.__setattr__(
            self, "set_plan", self._compile(self.set_values, allow_delta=True)
        )

    @staticmethod
    def _compile(
        bindings: Mapping[str, Any], *, allow_delta: bool = False
    ) -> tuple[tuple[tuple[str, int, Any], ...], int]:
        """Flatten a binding map into ((column, kind, payload), ...), max_param.

        ``ColumnDelta`` values are only meaningful in SET assignments; in any
        other position they bind as literals, as the uncompiled resolver did.
        """
        plan = []
        max_param = -1
        for column, value in bindings.items():
            if isinstance(value, ParameterRef):
                plan.append((column, BIND_PARAM, value.index))
                max_param = max(max_param, value.index)
            elif allow_delta and isinstance(value, ColumnDelta):
                plan.append((column, BIND_DELTA, value.index))
                max_param = max(max_param, value.index)
            else:
                plan.append((column, BIND_LITERAL, value))
        return tuple(plan), max_param

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def query_type(self) -> QueryType:
        """READ/WRITE classification used by the Markov probability tables."""
        return self._query_type

    @property
    def is_write(self) -> bool:
        return self.operation.is_write

    def parameter_count(self) -> int:
        """Number of parameters the statement expects (max index + 1)."""
        highest = -1
        for value in self._all_bound_values():
            if isinstance(value, (ParameterRef, ColumnDelta)):
                highest = max(highest, value.index)
        return highest + 1

    def _all_bound_values(self):
        yield from self.where.values()
        yield from self.insert_values.values()
        yield from self.set_values.values()

    def partitioning_parameter_index(self, partition_column: str) -> int | None:
        """Return the parameter index bound to ``partition_column`` if any.

        The partition estimator uses this to compute the partition a query
        will touch directly from its parameter values.  Returns ``None`` if
        the statement has no equality binding on the partitioning column (in
        which case the query is a broadcast).
        """
        candidates = self.where if self.operation is not Operation.INSERT else self.insert_values
        value = candidates.get(partition_column)
        if isinstance(value, ParameterRef):
            return value.index
        return None

    def partitioning_literal(self, partition_column: str) -> Any | None:
        """Return a literal bound to the partitioning column, if any."""
        candidates = self.where if self.operation is not Operation.INSERT else self.insert_values
        value = candidates.get(partition_column)
        if value is None or isinstance(value, (ParameterRef, ColumnDelta)):
            return None
        return value
