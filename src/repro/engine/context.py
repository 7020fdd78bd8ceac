"""Transaction execution context.

The :class:`TransactionContext` is the object handed to stored-procedure
control code (Fig. 2's ``run`` method).  It is responsible for

* resolving statement names to the procedure's compiled
  :class:`~repro.engine.executor.Step` (one probe of the step table),
* computing the partitions each invocation accesses, inline from the step's
  routing kind (the internal API's per-call half),
* enforcing the coordinator's lock set — touching a partition outside the
  locked set raises :class:`~repro.errors.MispredictionAbort`,
* recording every invocation (the transaction's *actual execution path*,
  which Houdini and the Markov-model builder consume),
* maintaining the per-transaction undo log,
* notifying registered listeners (the Houdini runtime monitor) after each
  query.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..catalog.partitioning import PartitionEstimator, stable_hash
from ..catalog.procedure import StoredProcedure
from ..errors import CatalogError, MispredictionAbort, UnknownStatementError, UserAbort
from ..storage.undo_log import UndoLog
from ..types import PartitionId, PartitionSet, QueryInvocation
from .executor import StatementExecutor

#: Listener signature: called after each query with (context, invocation).
QueryListener = Callable[["TransactionContext", QueryInvocation], None]

_ROUTE_PARAM = PartitionEstimator.PARAM
_ROUTE_FIXED = PartitionEstimator.FIXED


class TransactionContext:
    """Execution state for a single transaction attempt."""

    def __init__(
        self,
        executor: StatementExecutor,
        procedure: StoredProcedure,
        parameters: Sequence[Any],
        *,
        txn_id: int = 0,
        base_partition: PartitionId = 0,
        locked_partitions: PartitionSet | None = None,
        undo_enabled: bool = True,
        undo_log: UndoLog | None = None,
        listeners: Sequence[QueryListener] = (),
    ) -> None:
        #: The engine's statement executor: owns the compiled step tables and
        #: the routing constants, shared by every attempt.
        self.executor = executor
        self.database = executor.database
        self.procedure = procedure
        self.parameters = tuple(parameters)
        self.txn_id = txn_id
        self.base_partition = base_partition
        #: Partitions the coordinator locked for this transaction.  ``None``
        #: means every partition is available (a fully distributed txn).
        self.locked_partitions = locked_partitions
        #: The lock set as the frozenset :meth:`execute` tests inline.
        self._allowed = (
            locked_partitions.as_frozenset() if locked_partitions is not None else None
        )
        # An injected log (an effect-capturing one) must agree with
        # undo_enabled; callers construct it that way.
        self.undo_log = undo_log if undo_log is not None else UndoLog(enabled=undo_enabled)
        steps = executor.tables.get(procedure)
        if steps is None:
            steps = executor.compile_procedure(procedure)
        self._steps = steps
        self.invocations: list[QueryInvocation] = []
        self.touched_partitions: set[PartitionId] = set()
        #: Executions so far of each statement, by step index.
        self._counters = [0] * len(steps)
        self._listeners = listeners
        self.finished_partitions: set[PartitionId] = set()
        #: Partitions added to the lock set *after* undo logging had been
        #: disabled.  Aborting such a transaction would be unrecoverable, so
        #: the engine escalates the lock set instead of restarting; the
        #: simulator charges the late acquisition as a stall.
        self.escalated_partitions: set[PartitionId] = set()

    # ------------------------------------------------------------------
    # API used by stored-procedure control code
    # ------------------------------------------------------------------
    def execute(self, statement_name: str, parameters: Sequence[Any]) -> list[dict[str, Any]]:
        """Execute one of the procedure's statements.

        Everything the catalog fixes about the statement was resolved into
        its step when the procedure was compiled; what is left per call is
        the routing value, the lock-set test, one executor call and the
        bookkeeping the listeners read.

        Raises
        ------
        MispredictionAbort
            If the statement touches a partition outside the coordinator's
            lock set.  The coordinator catches this, rolls back and restarts
            the transaction with a larger lock set (Section 2, OP2).
        """
        step = self._steps.get(statement_name)
        if step is None:
            raise UnknownStatementError(self.procedure.name, statement_name)
        executor = self.executor
        route = step.route
        if route == _ROUTE_PARAM:
            try:
                value = parameters[step.route_payload]
            except IndexError:
                raise CatalogError(
                    f"statement {statement_name!r} expects at least "
                    f"{step.route_payload + 1} parameters"
                ) from None
            if type(value) is int:
                # stable_hash(int) is the int itself.
                partitions = executor.singletons[value % executor.num_partitions]
            elif value is None:
                partitions = executor.all_partitions
            else:
                partitions = executor.singletons[
                    stable_hash(value) % executor.num_partitions
                ]
        elif route == _ROUTE_FIXED:
            partitions = step.route_payload
        else:
            # A replicated read is local to wherever the control code runs.
            partitions = executor.singletons[self.base_partition]
        allowed = self._allowed
        if allowed is not None and not allowed.issuperset(partitions.partitions):
            self._check_lock_set(partitions)
        counters = self._counters
        counter = counters[step.index]
        counters[step.index] = counter + 1
        rows = executor.execute(step, parameters, partitions, self.undo_log)
        invocation = QueryInvocation(
            statement_name, tuple(parameters), partitions, counter, step.query_type
        )
        self.invocations.append(invocation)
        self.touched_partitions.update(partitions.partitions)
        for listener in self._listeners:
            listener(self, invocation)
        return rows

    def abort(self, reason: str = "") -> None:
        """Roll back the transaction from inside control code."""
        raise UserAbort(reason)

    # ------------------------------------------------------------------
    # API used by the coordinator / Houdini runtime
    # ------------------------------------------------------------------
    def disable_undo_logging(self) -> None:
        """Apply OP3: stop recording undo information for later queries."""
        self.undo_log.disable()

    def mark_partition_finished(self, partition_id: PartitionId) -> None:
        """Apply OP4: record that this transaction is done with a partition."""
        self.finished_partitions.add(partition_id)

    def rollback(self) -> int:
        """Undo every change this attempt made."""
        return self.undo_log.rollback(self.database.partition)

    def commit_cleanup(self) -> None:
        """Discard the undo buffer after a successful commit."""
        self.undo_log.clear()

    # ------------------------------------------------------------------
    def _check_lock_set(self, partitions: PartitionSet) -> None:
        """Out-of-line half of the lock-set test: :meth:`execute` found
        ``partitions`` not covered by the lock set — escalate or abort."""
        for partition_id in partitions.partitions:
            if partition_id not in self._allowed:
                if self.undo_log.records_skipped > 0:
                    # The transaction already wrote data without undo records
                    # (OP3); restarting it is impossible, so the only safe
                    # recovery from the OP2 misprediction is to escalate the
                    # lock set and keep going.
                    self.locked_partitions = self.locked_partitions.union(
                        PartitionSet.of([partition_id])
                    )
                    self.escalated_partitions.add(partition_id)
                    self._allowed = self.locked_partitions.as_frozenset()
                    continue
                raise MispredictionAbort(partition_id)
