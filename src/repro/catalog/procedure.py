"""Stored-procedure definitions.

A stored procedure bundles a set of named, parameterized statements with
Python "control code" (the equivalent of the Java ``run`` method in Fig. 2 of
the paper).  The control code receives an execution context (supplied by the
engine) and the procedure's input parameters, invokes statements through the
context, and may raise :class:`~repro.errors.UserAbort` to roll back.

The declaration also carries metadata that Houdini's model-partitioning phase
uses: the names of the input parameters (so features such as
``ARRAYLENGTH(i_ids)`` are human readable), and a flag for procedures that
are read-only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping, Protocol, Sequence

from ..errors import CatalogError, UnknownStatementError
from .statement import Statement


class ExecutionContext(Protocol):
    """The interface stored-procedure control code programs against.

    Implemented by :class:`repro.engine.context.TransactionContext` (real
    execution) and by the trace-generation context used when building
    workload traces.
    """

    def execute(self, statement_name: str, parameters: Sequence[Any]) -> list[dict[str, Any]]:
        """Execute a named statement with bound parameters, returning rows."""
        ...  # pragma: no cover - protocol

    def abort(self, reason: str = "") -> None:
        """Abort the transaction (raises :class:`~repro.errors.UserAbort`)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ProcedureParameter:
    """Declared input parameter of a stored procedure."""

    name: str
    is_array: bool = False


class StoredProcedure(ABC):
    """Base class for stored procedures.

    Subclasses must define:

    * ``name`` — unique procedure name,
    * ``parameters`` — a sequence of :class:`ProcedureParameter`,
    * ``statements`` — a mapping of statement name to :class:`Statement`,
    * :meth:`run` — the control code.
    """

    name: str = ""
    parameters: Sequence[ProcedureParameter] = ()
    statements: Mapping[str, Statement] = {}
    read_only: bool = False

    def __init__(self) -> None:
        if not self.name:
            raise CatalogError(f"{type(self).__name__} must define a procedure name")
        if not self.statements:
            raise CatalogError(f"procedure {self.name!r} must declare statements")
        for stmt_name, stmt in self.statements.items():
            if stmt_name != stmt.name:
                raise CatalogError(
                    f"procedure {self.name!r}: statement key {stmt_name!r} does not "
                    f"match statement name {stmt.name!r}"
                )

    # ------------------------------------------------------------------
    @abstractmethod
    def run(self, ctx: ExecutionContext, *params: Any) -> Any:
        """The procedure's control code."""

    # ------------------------------------------------------------------
    def statement(self, name: str) -> Statement:
        try:
            return self.statements[name]
        except KeyError:
            raise UnknownStatementError(self.name, name) from None

    def parameter_index(self, name: str) -> int:
        for i, parameter in enumerate(self.parameters):
            if parameter.name == name:
                return i
        raise CatalogError(f"procedure {self.name!r} has no parameter {name!r}")

    def validate_parameters(self, values: Sequence[Any]) -> None:
        """Check arity and array-ness of a parameter vector."""
        if len(values) != len(self.parameters):
            raise CatalogError(
                f"procedure {self.name!r} expects {len(self.parameters)} parameters, "
                f"got {len(values)}"
            )
        for declared, value in zip(self.parameters, values):
            if declared.is_array and not isinstance(value, (list, tuple)):
                raise CatalogError(
                    f"procedure {self.name!r}: parameter {declared.name!r} must be an array"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StoredProcedure {self.name} ({len(self.statements)} statements)>"
