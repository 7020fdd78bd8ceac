"""Transaction coordinator.

The coordinator owns the retry loop around the execution engine: it asks the
strategy for a plan, runs one attempt, and — when the attempt aborts because
it touched a partition outside its lock set — rolls back (already done by the
engine), asks the strategy for a restart plan and tries again.  This mirrors
the paper's description of how both the DB2-style redirect baseline and
Houdini handle mispredictions.

The coordinator is purely *functional*: it executes real queries against real
data but attaches no timing.  The discrete-event simulator
(:mod:`repro.sim`) replays the resulting :class:`TransactionRecord` through a
cost model to obtain latencies and throughput.
"""

from __future__ import annotations

from ..catalog.schema import Catalog
from ..engine.engine import AttemptOutcome, ExecutionEngine
from ..errors import TransactionError
from ..storage.partition_store import Database
from ..types import ProcedureRequest, TransactionId
from .plan import ExecutionPlan
from .record import TransactionRecord
from .strategy import ExecutionStrategy

#: Upper bound on restarts before the coordinator declares the strategy broken.
MAX_RESTARTS = 8


class TransactionCoordinator:
    """Drives logical transactions to completion under a strategy."""

    def __init__(
        self,
        catalog: Catalog,
        database: Database,
        strategy: ExecutionStrategy,
        *,
        max_restarts: int = MAX_RESTARTS,
    ) -> None:
        self.catalog = catalog
        self.database = database
        self.strategy = strategy
        self.engine = ExecutionEngine(catalog, database)
        self.max_restarts = max_restarts
        self._next_txn_id: TransactionId = 1

    # ------------------------------------------------------------------
    def execute_transaction(
        self,
        request: ProcedureRequest,
        txn_id: TransactionId | None = None,
    ) -> TransactionRecord:
        """Execute one logical transaction, restarting after mispredictions."""
        if txn_id is None:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
        engine = self.engine
        record = TransactionRecord(txn_id=txn_id, request=request)
        plan = self.strategy.plan_initial(request)
        for attempt_number in range(self.max_restarts + 1):
            listeners = self.strategy.attempt_listeners(request, plan)
            attempt = engine.execute_attempt(
                request,
                txn_id=txn_id,
                base_partition=plan.base_partition,
                locked_partitions=plan.locked_partitions,
                undo_enabled=plan.undo_logging,
                listeners=listeners,
            )
            record.add_attempt(plan, attempt)
            if attempt.outcome is not AttemptOutcome.MISPREDICTION:
                break
            plan = self.strategy.plan_restart(request, plan, attempt, attempt_number + 1)
        else:
            raise TransactionError(
                f"transaction {txn_id} ({request.procedure}) did not converge after "
                f"{self.max_restarts} restarts under strategy {self.strategy.name!r}"
            )
        # ``plan`` / ``attempt`` are the final pair here.
        record.undo_disabled = not plan.undo_logging or attempt.undo_records_skipped > 0
        record.early_prepared_partitions = frozenset(attempt.finished_partitions)
        self.strategy.on_transaction_complete(record)
        return record
