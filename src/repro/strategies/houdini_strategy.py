"""Execution strategy backed by the Houdini prediction framework.

For each request the strategy asks :class:`~repro.houdini.houdini.Houdini`
for an execution plan and a run-time monitor, attaches the monitor as a query
listener (so OP3/OP4 updates happen while the transaction runs), and — when a
prediction turns out wrong — restarts the transaction as a fully distributed
transaction exactly as the paper's evaluation does ("any transaction that
attempts to access a partition that Houdini failed to predict is aborted and
restarted as a multi-partition transaction that locks all partitions").
"""

from __future__ import annotations

from typing import Sequence

from ..engine.context import QueryListener
from ..engine.engine import AttemptResult
from ..houdini.houdini import Houdini, HoudiniPlan
from ..txn.plan import ExecutionPlan
from ..txn.record import TransactionRecord
from ..txn.strategy import ExecutionStrategy
from ..types import ProcedureRequest


class HoudiniStrategy(ExecutionStrategy):
    """Plans transactions with Houdini's Markov-model predictions.

    The strategy is stateful per logical transaction (plan → listeners →
    restarts → completion are called in sequence by the coordinator); it is
    not meant to be shared across concurrently executing coordinators.
    """

    def __init__(self, houdini: Houdini, *, name: str | None = None) -> None:
        self.houdini = houdini
        if name:
            self.name = name
        else:
            self.name = "houdini"
        self._current_plans: list[HoudiniPlan | None] = []
        self._current_request: ProcedureRequest | None = None
        self._never_finish: set[int] = set()

    # ------------------------------------------------------------------
    def plan_initial(self, request: ProcedureRequest) -> ExecutionPlan:
        self._current_plans = []
        self._current_request = request
        self._never_finish = set()
        houdini_plan = self.houdini.plan(request)
        self._current_plans.append(houdini_plan)
        return houdini_plan.plan

    def plan_restart(
        self,
        request: ProcedureRequest,
        failed_plan: ExecutionPlan,
        failed_attempt: AttemptResult,
        attempt_number: int,
    ) -> ExecutionPlan:
        # Mispredicted: rerun as a fully distributed transaction that locks
        # every partition with undo logging enabled.  Houdini keeps watching
        # the restarted attempt so OP4 can release the unused partitions --
        # except partitions whose early release is what caused the abort;
        # those are pinned for the rest of this transaction so the retry
        # loop cannot repeat the same misprediction forever.
        if self._current_plans:
            previous = self._current_plans[-1]
            if (
                previous is not None
                and previous.runtime.stats.finish_mispredicted
                and failed_attempt.mispredicted_partition is not None
            ):
                self._never_finish.add(failed_attempt.mispredicted_partition)
        houdini_plan = self.houdini.plan_restart(
            request,
            failed_plan.base_partition,
            attempt_number=attempt_number,
            never_finish=frozenset(self._never_finish),
        )
        self._current_plans.append(houdini_plan)
        return houdini_plan.plan

    # ------------------------------------------------------------------
    def attempt_listeners(
        self, request: ProcedureRequest, plan: ExecutionPlan
    ) -> Sequence[QueryListener]:
        if not self._current_plans:
            return ()
        houdini_plan = self._current_plans[-1]
        if houdini_plan is None:
            # Conservative restart attempt: no run-time monitoring.
            return ()
        return (houdini_plan.runtime,)

    def on_transaction_complete(self, record: TransactionRecord) -> None:
        for houdini_plan, attempt in zip(self._current_plans, record.attempts):
            if houdini_plan is None:
                continue
            self.houdini.after_attempt(record.request, houdini_plan, attempt)
        self._current_plans = []
        self._current_request = None

    def preview_estimate(self, request: ProcedureRequest):
        """Expose Houdini's path estimate to the scheduling layer."""
        return self.houdini.estimate(request)

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Per-procedure optimization statistics (Table 4)."""
        return self.houdini.stats
