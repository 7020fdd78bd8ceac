"""Schema and catalog containers.

The :class:`Schema` groups table definitions; the :class:`Catalog` combines a
schema, a partitioning scheme, and the registered stored procedures.  The
catalog is the single object handed to the engine, the simulator, the
Markov-model builder and Houdini.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import CatalogError, UnknownProcedureError, UnknownTableError
from .partitioning import PartitionEstimator, PartitionScheme
from .procedure import StoredProcedure
from .statement import Statement
from .table import Table


class Schema:
    """An ordered collection of :class:`Table` definitions."""

    def __init__(self, tables: Iterable[Table] = ()) -> None:
        self._tables: dict[str, Table] = {}
        for table in tables:
            self.add_table(table)

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables


class Catalog:
    """Schema + partitioning scheme + stored procedures.

    This mirrors H-Store's catalog: everything the transaction coordinator
    and Houdini need to know about the application is reachable from here.
    """

    def __init__(
        self,
        schema: Schema,
        scheme: PartitionScheme,
        procedures: Iterable[StoredProcedure] = (),
    ) -> None:
        self.schema = schema
        self.scheme = scheme
        self.estimator = PartitionEstimator(scheme)
        self._procedures: dict[str, StoredProcedure] = {}
        for procedure in procedures:
            self.add_procedure(procedure)
        self._validate()

    # ------------------------------------------------------------------
    def add_procedure(self, procedure: StoredProcedure) -> None:
        if procedure.name in self._procedures:
            raise CatalogError(f"duplicate procedure {procedure.name!r}")
        for statement in procedure.statements.values():
            self._validate_statement(procedure.name, statement)
        self._procedures[procedure.name] = procedure

    def procedure(self, name: str) -> StoredProcedure:
        try:
            return self._procedures[name]
        except KeyError:
            raise UnknownProcedureError(name) from None

    def has_procedure(self, name: str) -> bool:
        return name in self._procedures

    def procedures(self) -> Iterator[StoredProcedure]:
        return iter(self._procedures.values())

    @property
    def num_partitions(self) -> int:
        return self.scheme.num_partitions

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if len(self.schema) == 0:
            raise CatalogError("catalog requires at least one table")

    def _validate_statement(self, procedure_name: str, statement: Statement) -> None:
        if not self.schema.has_table(statement.table):
            raise UnknownTableError(statement.table)
        table = self.schema.table(statement.table)
        referenced = set(statement.where) | set(statement.insert_values) | set(statement.set_values)
        for column in referenced:
            if not table.has_column(column):
                raise CatalogError(
                    f"procedure {procedure_name!r} statement {statement.name!r} "
                    f"references unknown column {column!r} of table {table.name!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Catalog tables={len(self.schema)} procedures={len(self._procedures)} "
            f"partitions={self.scheme.num_partitions}>"
        )
