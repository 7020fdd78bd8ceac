"""The paper-literal statement path: the reference the step tables must equal.

One layer per line, nothing cached, nothing compiled: resolve the statement
by name, ask a *fresh* partition estimator where it goes, test the lock set,
bind the WHERE / VALUES / SET maps straight from the statement's declarative
form (this module owns its binder — production has none left), find the rows
by a full scan with an ``==`` test per predicate column (production's
access-path planner is what it checks), apply the change row by row with
per-row validation, write the undo record, append the effect.  It is the
differential oracle for ``repro.engine``
(``tests/property/test_property_execution.py``): same rows returned, same
exception type and message, same ``QueryInvocation`` stream, same undo
written/skipped counts, same captured effects, same final heaps and declared
indexes.

It shares with production only what sits *below* the statement path — the
row heap's rows and write methods, the undo log, the catalog's declarative
objects and ``PartitionEstimator.partitions_for`` (the off-line internal
API).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.catalog import ColumnDelta, Operation, ParameterRef, PartitionEstimator
from repro.engine.engine import AttemptOutcome, AttemptResult
from repro.errors import CatalogError, ExecutionError, MispredictionAbort, UserAbort
from repro.storage import UndoLog
from repro.types import PartitionSet, QueryInvocation


class CapturingUndoLog(UndoLog):
    """An undo log whose :attr:`effects` sink records one op per physical
    write, so the engine's write stream can be compared with this module's."""

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled=enabled)
        self.effects: list[tuple] = []


def replay_effects(database, effects) -> None:
    """Apply a captured effect stream through the heaps' own write paths."""
    for kind, table, partition_id, row_id, *payload in effects:
        heap = database.partition(partition_id).heap(table)
        if kind == "i":
            heap.insert_raw(payload[0], row_id)
        elif kind == "u":
            heap.update(row_id, payload[0])
        else:
            assert kind == "d", kind
            heap.delete(row_id)


def bind(bindings: dict[str, Any], parameters: Sequence[Any]) -> dict[str, Any]:
    """Column -> value for a WHERE / VALUES map; deltas stay wrapped."""
    needed = max(
        (v.index for v in bindings.values() if isinstance(v, (ParameterRef, ColumnDelta))),
        default=-1,
    )
    if needed >= len(parameters):
        raise CatalogError(
            f"statement expected parameter index {needed} but only "
            f"{len(parameters)} parameters were supplied"
        )
    bound = {}
    for column, value in bindings.items():
        if isinstance(value, ParameterRef):
            bound[column] = parameters[value.index]
        elif isinstance(value, ColumnDelta):
            bound[column] = (ColumnDelta, parameters[value.index])
        else:
            bound[column] = value
    return bound


def scan(heap, predicate: dict[str, Any]) -> list[int]:
    """Row ids whose rows equal every predicate value: a full scan in
    storage order, with no index and no access-path planner."""
    return [
        row_id for row_id in heap.row_ids()
        if all(heap._rows[row_id].get(column) == value for column, value in predicate.items())
    ]


class ReferenceContext:
    """What ``ctx.execute`` means, spelled out."""

    def __init__(
        self,
        catalog,
        database,
        procedure,
        *,
        base_partition=0,
        locked_partitions=None,
        undo_log=None,
        listeners=(),
    ) -> None:
        self.catalog = catalog
        self.database = database
        self.procedure = procedure
        self.base_partition = base_partition
        self.locked_partitions = locked_partitions
        self.undo_log = undo_log if undo_log is not None else UndoLog()
        self.listeners = list(listeners)
        self.invocations: list[QueryInvocation] = []
        #: Times each statement was *started* (a statement that raises still
        #: counts: the counter moves before the executor runs).
        self.started: dict[str, int] = {}
        self.touched_partitions: set[int] = set()
        self.finished_partitions: set[int] = set()
        self.escalated_partitions: set[int] = set()

    # -- the API stored-procedure control code and listeners use ---------
    def execute(self, statement_name, parameters):
        statement = self.procedure.statement(statement_name)
        table = self.catalog.schema.table(statement.table)
        partitions = PartitionEstimator(self.catalog.scheme).partitions_for(
            table, statement, parameters, base_partition=self.base_partition
        )
        self.check_lock_set(partitions)
        counter = self.started.get(statement_name, 0)
        self.started[statement_name] = counter + 1
        rows = self.run(statement, parameters, partitions)
        invocation = QueryInvocation(
            statement=statement_name,
            parameters=tuple(parameters),
            partitions=partitions,
            counter=counter,
            query_type=statement.query_type,
        )
        self.invocations.append(invocation)
        self.touched_partitions.update(partitions.partitions)
        for listener in self.listeners:
            listener(self, invocation)
        return rows

    def abort(self, reason=""):
        raise UserAbort(reason)

    def disable_undo_logging(self):
        self.undo_log.disable()

    def mark_partition_finished(self, partition_id):
        self.finished_partitions.add(partition_id)

    # -- lock set ---------------------------------------------------------
    def check_lock_set(self, partitions):
        if self.locked_partitions is None:
            return
        for partition_id in partitions.partitions:
            if self.locked_partitions.contains(partition_id):
                continue
            if self.undo_log.records_skipped > 0:
                # Writes already happened without undo records: a restart
                # is impossible, the lock set grows instead.
                self.locked_partitions = self.locked_partitions.union(
                    PartitionSet.of([partition_id])
                )
                self.escalated_partitions.add(partition_id)
                continue
            raise MispredictionAbort(partition_id)

    # -- one statement ------------------------------------------------------
    def run(self, statement, parameters, partitions):
        if not partitions.partitions:
            raise ExecutionError(f"statement {statement.name!r} targeted no partitions")
        if statement.operation is Operation.SELECT:
            predicate = bind(statement.where, parameters)
            rows = []
            for partition_id in partitions.partitions:
                heap = self.database.partition(partition_id).heap(statement.table)
                found = [heap.get(row_id) for row_id in scan(heap, predicate)]
                if statement.order_by is not None:
                    column, descending = statement.order_by
                    found.sort(key=lambda r: r[column], reverse=descending)
                if statement.limit is not None:
                    found = found[: statement.limit]
                rows.extend(found)
            if statement.order_by is not None and len(partitions.partitions) > 1:
                # Merged on full rows: the ORDER BY column need not be projected.
                column, descending = statement.order_by
                rows.sort(key=lambda r: r[column], reverse=descending)
                if statement.limit is not None:
                    rows = rows[: statement.limit]
            if statement.output_columns:
                rows = [{c: row[c] for c in statement.output_columns} for row in rows]
            return rows
        modified = 0
        for partition_id in partitions.partitions:
            modified += self.write(statement, parameters, partition_id)
        return [{"modified": modified}]

    def write(self, statement, parameters, partition_id):
        heap = self.database.partition(partition_id).heap(statement.table)
        log, effects, name = self.undo_log, self.undo_log.effects, statement.table
        if statement.operation is Operation.INSERT:
            row_id = heap.insert(bind(statement.insert_values, parameters))
            log.record_insert(name, partition_id, row_id)
            if effects is not None:
                effects.append(("i", name, partition_id, row_id, heap.get(row_id)))
            return 1
        row_ids = scan(heap, bind(statement.where, parameters))
        if statement.operation is Operation.DELETE:
            for row_id in row_ids:
                log.record_delete(name, partition_id, row_id, heap.delete(row_id))
                if effects is not None:
                    effects.append(("d", name, partition_id, row_id))
            return len(row_ids)
        assignments = bind(statement.set_values, parameters)
        for row_id in row_ids:
            current = heap.get(row_id)
            resolved = {
                column: current[column] + value[1]
                if isinstance(value, tuple) and value[0] is ColumnDelta else value
                for column, value in assignments.items()
            }
            log.record_update(name, partition_id, row_id, heap.update(row_id, resolved))
            if effects is not None:
                effects.append(("u", name, partition_id, row_id, resolved))
        return len(row_ids)


def reference_attempt(
    catalog,
    database,
    request,
    *,
    txn_id=0,
    base_partition=0,
    locked_partitions=None,
    undo_enabled=True,
    listeners=(),
    undo_log=None,
) -> AttemptResult:
    """``ExecutionEngine.execute_attempt`` over a :class:`ReferenceContext`."""
    procedure = catalog.procedure(request.procedure)
    procedure.validate_parameters(request.parameters)
    context = ReferenceContext(
        catalog, database, procedure,
        base_partition=base_partition, locked_partitions=locked_partitions,
        undo_log=undo_log if undo_log is not None else UndoLog(enabled=undo_enabled),
        listeners=listeners,
    )
    outcome, extra = AttemptOutcome.COMMITTED, {}
    try:
        extra["return_value"] = procedure.run(context, *request.parameters)
    except UserAbort as abort:
        context.undo_log.rollback(database.partition)
        outcome, extra = AttemptOutcome.USER_ABORT, {"abort_reason": abort.reason}
    except MispredictionAbort as abort:
        context.undo_log.rollback(database.partition)
        outcome = AttemptOutcome.MISPREDICTION
        extra = {"abort_reason": abort.reason, "mispredicted_partition": abort.partition_id}
    result = AttemptResult(
        outcome=outcome,
        procedure=request.procedure,
        parameters=tuple(request.parameters),
        base_partition=base_partition,
        touched_partitions=PartitionSet.of(context.touched_partitions),
        invocations=list(context.invocations),
        undo_records_written=context.undo_log.records_written,
        undo_records_skipped=context.undo_log.records_skipped,
        finished_partitions=frozenset(context.finished_partitions),
        escalated_partitions=frozenset(context.escalated_partitions),
        **extra,
    )
    if outcome is AttemptOutcome.COMMITTED:
        context.undo_log.clear()
    return result
