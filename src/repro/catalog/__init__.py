"""Catalog subsystem: tables, statements, procedures and partitioning.

This package reproduces the metadata layer of an H-Store-style DBMS: typed
tables partitioned on a single column, parameterized statements whose
partition footprint can be computed from their bound parameters, and stored
procedures combining statements with Python control code.
"""

from .column import (
    Column,
    ColumnType,
    floating,
    integer,
    string,
)
from .partitioning import PartitionEstimator, PartitionScheme, stable_hash
from .procedure import (
    ExecutionContext,
    ProcedureParameter,
    StoredProcedure,
)
from .schema import Catalog, Schema
from .statement import (
    ColumnDelta,
    Operation,
    ParameterRef,
    Statement,
    delta,
    param,
)
from .table import SecondaryIndex, Table

__all__ = [
    "Column",
    "ColumnType",
    "integer",
    "floating",
    "string",
    "Table",
    "SecondaryIndex",
    "Schema",
    "Catalog",
    "Statement",
    "Operation",
    "ParameterRef",
    "ColumnDelta",
    "param",
    "delta",
    "StoredProcedure",
    "ProcedureParameter",
    "ExecutionContext",
    "PartitionScheme",
    "PartitionEstimator",
    "stable_hash",
]
