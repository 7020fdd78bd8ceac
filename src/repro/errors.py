"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch the whole family with a single ``except`` clause.  The
sub-classes mirror the major subsystems of the paper's architecture: catalog
definition errors, storage/engine errors, transaction-control errors and
prediction-framework (Houdini) errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class CatalogError(ReproError):
    """Raised for invalid schema, statement or procedure definitions."""


class UnknownTableError(CatalogError):
    """Raised when a statement or query references a table not in the schema."""

    def __init__(self, table_name: str) -> None:
        super().__init__(f"unknown table: {table_name!r}")
        self.table_name = table_name


class UnknownColumnError(CatalogError):
    """Raised when a statement references a column that its table lacks."""

    def __init__(self, table_name: str, column_name: str) -> None:
        super().__init__(f"unknown column {column_name!r} in table {table_name!r}")
        self.table_name = table_name
        self.column_name = column_name


class UnknownStatementError(CatalogError):
    """Raised when a procedure invokes a statement it never declared."""

    def __init__(self, procedure_name: str, statement_name: str) -> None:
        super().__init__(
            f"procedure {procedure_name!r} has no statement named {statement_name!r}"
        )
        self.procedure_name = procedure_name
        self.statement_name = statement_name


class UnknownProcedureError(CatalogError):
    """Raised when a request names a stored procedure the catalog lacks."""

    def __init__(self, procedure_name: str) -> None:
        super().__init__(f"unknown stored procedure: {procedure_name!r}")
        self.procedure_name = procedure_name


class StorageError(ReproError):
    """Raised for storage-layer failures (constraint violations, bad rows)."""


class DuplicateKeyError(StorageError):
    """Raised when an insert would violate a primary-key constraint."""

    def __init__(self, table_name: str, key: object) -> None:
        super().__init__(f"duplicate primary key {key!r} in table {table_name!r}")
        self.table_name = table_name
        self.key = key


class ExecutionError(ReproError):
    """Raised for run-time execution failures inside a partition engine."""


class TransactionError(ReproError):
    """Base class for transaction-control errors."""


class TransactionAbort(TransactionError):
    """Raised (and caught by the coordinator) when a transaction aborts.

    ``user_initiated`` distinguishes application-level rollbacks (e.g. the
    TPC-C NewOrder "bad item" abort) from system-initiated aborts such as
    mispredicted partition accesses.
    """

    def __init__(self, reason: str = "", user_initiated: bool = True) -> None:
        super().__init__(reason or "transaction aborted")
        self.reason = reason
        self.user_initiated = user_initiated


class UserAbort(TransactionAbort):
    """Application-requested rollback from inside stored-procedure code."""

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason=reason or "user abort", user_initiated=True)


class MispredictionAbort(TransactionAbort):
    """The transaction touched a partition that was not locked for it.

    In the paper this forces the DBMS to abort the transaction and restart it
    (either as a redirected single-partition transaction or as a distributed
    transaction that locks additional partitions).
    """

    def __init__(self, partition_id: int, reason: str = "") -> None:
        super().__init__(
            reason=reason or f"accessed unpredicted partition {partition_id}",
            user_initiated=False,
        )
        self.partition_id = partition_id


class UnrecoverableError(TransactionError):
    """A transaction aborted after undo logging had been disabled (OP3).

    The paper treats this as catastrophic ("the node must halt"); the
    simulator raises this error so that tests can assert it never happens for
    Houdini's predictions.
    """


class ModelError(ReproError):
    """Raised for malformed Markov models or invalid model operations."""


class EstimationError(ReproError):
    """Raised when Houdini cannot produce an estimate for a request."""


class WorkloadError(ReproError):
    """Raised for malformed workload traces or generator misconfiguration."""


class SimulationError(ReproError):
    """Raised for invalid simulator configuration or impossible schedules."""


class SessionError(ReproError, ValueError):
    """Raised for invalid cluster specifications or misuse of a session
    (unknown spec fields, out-of-range values, driving a closed session).

    Also a :class:`ValueError`: a bad configuration value (an unknown
    strategy name, an out-of-range threshold) is a value error by Python's
    convention, and the config classes outside the session raise plain
    ``ValueError`` for the same mistakes — one ``except ValueError`` catches
    a bad value wherever it was declared.
    """
