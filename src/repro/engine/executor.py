"""Statement executor: per-procedure step tables.

Stored procedures are *predefined* (paper §2): every statement a transaction
can issue, the table it hits and the parameter that routes it are known
before the first request arrives.  The executor therefore compiles each
procedure once, on its first attempt, into a table ``statement name ->``
:class:`Step` holding everything the catalog and this engine's heaps fix
about the statement — routing kind, target heap per partition, the WHERE
clause's access path with its key binder (the dominant OLTP access,
"transactions touch a small subset of data using index look-ups"), the SET
plan of an UPDATE, the full defaulted row plan of an INSERT.  Executing a
statement reads the step; nothing is re-derived per call.

The executor is deliberately partition-oblivious about *policy*: it is told
which partitions to touch; deciding that set (and whether touching it is
allowed) is the transaction context's and coordinator's job.

A step table has no invalidation rule because nothing it captures can
change: the catalog is immutable and the heaps live exactly as long as the
engine that owns this executor.  That holds only while each executor keeps
its own tables; tables shared between executors fail
``tests/engine/test_step_table.py::TestTableLifetime``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Sequence

from ..catalog.procedure import StoredProcedure
from ..catalog.schema import Catalog
from ..catalog.statement import BIND_DELTA, Operation, Statement, missing_parameter
from ..errors import CatalogError, ExecutionError, UnknownColumnError
from ..storage.heap import AccessPath, RowHeap
from ..storage.partition_store import Database
from ..storage.undo_log import UndoLog
from ..types import PartitionId, PartitionSet, QueryType


@dataclass(slots=True)
class Step:
    """One statement of one procedure, resolved against catalog and heaps."""

    statement: Statement
    #: Position in the procedure (the context's counter slot).
    index: int
    query_type: QueryType
    #: ``PartitionEstimator.resolve``'s ``(kind, payload)``.
    route: int
    route_payload: Any
    #: Target heap, by partition id.
    heaps: tuple[RowHeap, ...]
    #: The WHERE clause's ``RowHeap.access_path``, ``parameters -> key`` in
    #: index-column order (a one-column ``itemgetter`` yields the bare value,
    #: ``key_is_scalar``), the ``(column, kind, payload)`` predicates the key
    #: leaves to check per row, and the parameters the clause needs.
    path: AccessPath | None = None
    key_of: Callable[[Sequence[Any]], Any] | None = None
    key_is_scalar: bool = False
    residual: tuple[tuple[str, int, Any], ...] = ()
    where_arity: int = 0
    #: Per partition: the path's ``RowHeap.prober`` (resolved on first use,
    #: so a prefix index is built where needed) and the live row dict.
    probes: list = field(default_factory=list)
    rows: tuple[dict[int, dict[str, Any]], ...] = ()
    #: A unique, exact path: one dict lookup per partition (``execute``).
    point: bool = False
    #: The write body (``None`` for SELECT): this module's ``_insert`` /
    #: ``_update`` / ``_delete``.
    write: Callable[..., int] | None = None
    #: UPDATE: ``(column, kind, payload)`` assignments, the parameters they
    #: need, and whether any is additive.
    set_plan: tuple[tuple[str, int, Any], ...] = ()
    set_arity: int = 0
    set_has_deltas: bool = False
    #: INSERT: one ``(name, is_param, payload, exact_types, column)`` entry
    #: per table column, in table order, defaults filled in.  A statement
    #: naming an unknown column, or omitting a required one, keeps the
    #: error's constructor (and the entries validated before it) to raise at
    #: execution time, where the uncompiled path did.
    row_plan: tuple[tuple, ...] = ()
    row_arity: int = 0
    row_error: Callable[[], Exception] | None = None


class StatementExecutor:
    """Executes individual statements against the in-memory database.

    Stateless with respect to any single transaction, so one instance is
    shared by every attempt an :class:`~repro.engine.engine.ExecutionEngine`
    runs.
    """

    def __init__(self, catalog: Catalog, database: Database) -> None:
        self.catalog = catalog
        self.database = database
        #: Routing constants the transaction context reads per statement.
        estimator = catalog.estimator
        self.singletons = estimator.singletons
        self.all_partitions = estimator.all_partitions
        self.num_partitions = catalog.num_partitions
        #: Compiled step tables, by procedure (built on first use, never
        #: invalidated — see the module docstring).
        self.tables: dict[StoredProcedure, dict[str, Step]] = {}

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile_procedure(self, procedure: StoredProcedure) -> dict[str, Step]:
        """Build (and keep) the step table of ``procedure``."""
        steps = {
            name: self.compile(statement, index)
            for index, (name, statement) in enumerate(procedure.statements.items())
        }
        self.tables[procedure] = steps
        return steps

    def compile(self, statement: Statement, index: int = 0) -> Step:
        """Resolve one statement into its :class:`Step`."""
        table = self.catalog.schema.table(statement.table)
        route, route_payload = self.catalog.estimator.resolve(table, statement)
        # Direct partition-store list: partition ids were bounded by routing.
        heaps = tuple(store._heaps[statement.table] for store in self.database._partitions)
        step = Step(statement, index, statement.query_type, route, route_payload, heaps)
        operation = statement.operation
        if operation is Operation.INSERT:
            step.write = _insert
            self._compile_row_plan(step, table)
            return step
        self._compile_access(step)
        if operation is Operation.UPDATE:
            step.write = _update
            step.set_plan, set_max_param = statement.set_plan
            step.set_arity = set_max_param + 1
            step.set_has_deltas = any(kind == BIND_DELTA for _, kind, _ in step.set_plan)
        elif operation is Operation.DELETE:
            step.write = _delete
        return step

    @staticmethod
    def _compile_access(step: Step) -> None:
        where_plan, where_max_param = step.statement.where_plan
        by_column = {column: (kind, payload) for column, kind, payload in where_plan}
        step.path = path = step.heaps[0].access_path(by_column.keys())
        step.where_arity = where_max_param + 1
        bindings = [by_column[column] for column in path.key_columns]
        if bindings and all(kind for kind, _ in bindings):
            step.key_of = itemgetter(*(payload for _, payload in bindings))
            step.key_is_scalar = len(bindings) == 1
        elif bindings:
            step.key_of = lambda parameters: tuple(
                parameters[payload] if kind else payload for kind, payload in bindings
            )
        if not path.exact:
            step.residual = tuple(e for e in where_plan if e[0] not in path.key_columns)
        step.point = path.unique and path.exact
        step.probes = [None] * len(step.heaps)
        step.rows = tuple(heap._rows for heap in step.heaps)

    @staticmethod
    def _compile_row_plan(step: Step, table) -> None:
        insert_plan, insert_max_param = step.statement.insert_plan
        step.row_arity = insert_max_param + 1
        bound = {column: (kind, payload) for column, kind, payload in insert_plan}
        for name in bound:
            if not table.has_column(name):
                step.row_error = partial(UnknownColumnError, table.name, name)
                return
        entries = []
        for column in table.columns:
            if column.name in bound:
                kind, payload = bound[column.name]
            elif column.default is not None or column.nullable:
                kind, payload = 0, column.default
            else:
                step.row_error = partial(
                    CatalogError,
                    f"insert into {table.name!r} missing required column {column.name!r}",
                )
                break
            entries.append((column.name, kind, payload, column._exact_types, column))
        step.row_plan = tuple(entries)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        step: Step,
        parameters: Sequence[Any],
        partitions: PartitionSet,
        undo_log: UndoLog,
    ) -> list[dict[str, Any]]:
        """Execute ``step`` at every partition in ``partitions``.

        Returns the merged result rows (for SELECT) or a single-row summary
        with the number of modified rows (for writes), matching the shape
        stored-procedure control code expects.
        """
        partition_ids = partitions.partitions
        if not partition_ids:
            raise ExecutionError(f"statement {step.statement.name!r} targeted no partitions")
        if step.write is not None:
            return [{"modified": step.write(step, parameters, partition_ids, undo_log)}]
        statement = step.statement
        order_by, limit = statement.order_by, statement.limit
        probes, heap_rows = step.probes, step.rows
        found: list[dict[str, Any]] = []
        if step.point:
            # Primary-key reads, broadcasts through a unique index: at most one
            # row per partition, so ordering and a positive limit are no-ops.
            if step.where_arity > len(parameters):
                raise missing_parameter(step.where_arity - 1, len(parameters))
            key = step.key_of(parameters)
            if step.key_is_scalar:
                key = (key,)
            for partition_id in partition_ids:
                row_id = (probes[partition_id] or _resolve_probe(step, partition_id))(key)
                if row_id is not None:
                    found.append(heap_rows[partition_id][row_id])
        else:
            key, residual = _bind_where(step, parameters)
            for partition_id in partition_ids:
                probe = probes[partition_id] or _resolve_probe(step, partition_id)
                rows = heap_rows[partition_id]
                row_ids = step.heaps[partition_id].match(probe, key, residual, step.path.unique)
                matched = [rows[row_id] for row_id in row_ids]
                if order_by is not None:
                    matched.sort(key=itemgetter(order_by[0]), reverse=order_by[1])
                if limit is not None:
                    del matched[limit:]
                found.extend(matched)
        if order_by is not None and len(partition_ids) > 1:
            # Merged on full rows: the ORDER BY column need not be projected.
            found.sort(key=itemgetter(order_by[0]), reverse=order_by[1])
            if limit is not None:
                del found[limit:]
        output_columns = statement.output_columns
        if not output_columns:
            return [dict(row) for row in found]
        rows_out = []
        for row in found:
            projected = {}
            for column in output_columns:
                projected[column] = row[column]
            rows_out.append(projected)
        return rows_out


# ----------------------------------------------------------------------
# Write bodies (``Step.write``).  Module-level on purpose: a step holding a
# bound method of its executor would tie executor, steps and heaps into a
# reference cycle, and a dropped engine's database would wait for the cycle
# collector instead of being freed at once.
# ----------------------------------------------------------------------
def _bind_where(step: Step, parameters: Sequence[Any]) -> tuple[Any, tuple]:
    """The probe key and the bound ``(column, value)`` residual of one call."""
    if step.where_arity > len(parameters):
        raise missing_parameter(step.where_arity - 1, len(parameters))
    key = step.key_of(parameters) if step.key_of is not None else None
    if step.key_is_scalar:
        key = (key,)
    return key, step.residual and tuple(
        (column, parameters[payload] if kind else payload)
        for column, kind, payload in step.residual
    )


def _resolve_probe(step: Step, partition_id: PartitionId):
    probe = step.probes[partition_id] = step.heaps[partition_id].prober(step.path)
    return probe


def _insert(
    step: Step, parameters: Sequence[Any], partition_ids: Sequence[PartitionId], undo_log: UndoLog
) -> int:
    if step.row_arity > len(parameters):
        raise missing_parameter(step.row_arity - 1, len(parameters))
    table_name = step.statement.table
    effects = undo_log.effects
    for partition_id in partition_ids:
        # The full, defaulted, type-checked row in one pass (replaces
        # bind_insert + Table.new_row); each partition stores its own.
        row: dict[str, Any] = {}
        for name, is_param, payload, exact_types, column in step.row_plan:
            value = parameters[payload] if is_param else payload
            if type(value) not in exact_types:
                # Slow path covers None/nullability, bool-vs-int and errors.
                column.validate_value(value)
            row[name] = value
        if step.row_error is not None:
            raise step.row_error()
        row_id = step.heaps[partition_id].insert(row, validate=False)
        undo_log.record_insert(table_name, partition_id, row_id)
        if effects is not None:
            effects.append(("i", table_name, partition_id, row_id, dict(row)))
    return len(partition_ids)


def _update(
    step: Step, parameters: Sequence[Any], partition_ids: Sequence[PartitionId], undo_log: UndoLog
) -> int:
    table_name = step.statement.table
    set_plan = step.set_plan
    has_deltas = step.set_has_deltas
    effects = undo_log.effects
    modified = 0
    key, residual = _bind_where(step, parameters)
    for partition_id in partition_ids:
        heap = step.heaps[partition_id]
        probe = step.probes[partition_id] or _resolve_probe(step, partition_id)
        # A new list: the write may re-key or remove the rows it iterates.
        row_ids = heap.match(probe, key, residual, step.path.unique)
        if step.set_arity > len(parameters):
            raise missing_parameter(step.set_arity - 1, len(parameters))
        assignments: dict[str, Any] = {}
        if not has_deltas:
            # One shared assignment dict for every matched row, validated
            # once instead of per row.
            for column, is_param, payload in set_plan:
                assignments[column] = parameters[payload] if is_param else payload
            if row_ids:
                heap.table.validate_update(assignments)
        logging = undo_log.enabled
        for row_id in row_ids:
            if has_deltas:
                # ``col = col + parameter`` straight from the SET plan;
                # the sum depends on the row, so each is validated.
                current = step.rows[partition_id][row_id]
                assignments = {}
                for column, kind, payload in set_plan:
                    if kind == BIND_DELTA:
                        assignments[column] = current[column] + parameters[payload]
                    else:
                        assignments[column] = parameters[payload] if kind else payload
            before = heap.update(
                row_id, assignments, validate=has_deltas, capture_before=logging
            )
            if logging:
                undo_log.record_update(table_name, partition_id, row_id, before)
            else:
                # OP3 active: no image was built, but the skipped-record
                # count must stay exact.
                undo_log.note_skipped()
            if effects is not None:
                effects.append(("u", table_name, partition_id, row_id, assignments))
        modified += len(row_ids)
    return modified


def _delete(
    step: Step, parameters: Sequence[Any], partition_ids: Sequence[PartitionId], undo_log: UndoLog
) -> int:
    table_name = step.statement.table
    effects = undo_log.effects
    modified = 0
    key, residual = _bind_where(step, parameters)
    for partition_id in partition_ids:
        heap = step.heaps[partition_id]
        probe = step.probes[partition_id] or _resolve_probe(step, partition_id)
        for row_id in heap.match(probe, key, residual, step.path.unique):
            before = heap.delete(row_id)
            undo_log.record_delete(table_name, partition_id, row_id, before)
            if effects is not None:
                effects.append(("d", table_name, partition_id, row_id))
            modified += 1
    return modified
