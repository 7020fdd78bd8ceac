"""Transaction records: the full history of one logical transaction.

A logical transaction may consist of several *attempts* (because of
DB2-style redirects or misprediction restarts).  The record collects the
plans and attempt results as aligned (plan, attempt) pairs, which is
everything the metrics layer, the simulator's cost model and the accuracy
evaluation need.  The coordinator appends pairs through :meth:`add_attempt`;
consumers iterate them through :meth:`attempt_pairs`, which returns a
concrete list (the simulator replays it once per transaction on its hot
path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.engine import AttemptOutcome, AttemptResult
from ..types import PartitionSet, ProcedureRequest, TransactionId
from .plan import ExecutionPlan


@dataclass
class TransactionRecord:
    """Everything that happened while executing one client request."""

    txn_id: TransactionId
    request: ProcedureRequest
    plans: list[ExecutionPlan] = field(default_factory=list)
    attempts: list[AttemptResult] = field(default_factory=list)
    #: Optimization bookkeeping filled in by the strategy / Houdini runtime.
    optimizations_enabled: dict[str, bool] = field(default_factory=dict)
    #: Whether undo logging was disabled at any point during execution.
    undo_disabled: bool = False
    #: Partitions that were early-prepared (speculation targets, OP4).
    early_prepared_partitions: frozenset[int] = frozenset()
    #: Aligned (plan, attempt) pairs maintained by :meth:`add_attempt`.
    _pairs: list[tuple[ExecutionPlan, AttemptResult]] = field(
        default_factory=list, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def final_attempt(self) -> AttemptResult:
        if not self.attempts:
            raise ValueError("transaction has no attempts")
        return self.attempts[-1]

    @property
    def final_plan(self) -> ExecutionPlan:
        if not self.plans:
            raise ValueError("transaction has no plans")
        return self.plans[-1]

    @property
    def committed(self) -> bool:
        return bool(self.attempts) and self.final_attempt.outcome is AttemptOutcome.COMMITTED

    @property
    def user_aborted(self) -> bool:
        return bool(self.attempts) and self.final_attempt.outcome is AttemptOutcome.USER_ABORT

    @property
    def restarts(self) -> int:
        """Number of attempts beyond the first."""
        return max(0, len(self.attempts) - 1)

    @property
    def procedure(self) -> str:
        return self.request.procedure

    @property
    def touched_partitions(self) -> PartitionSet:
        return self.final_attempt.touched_partitions

    # ------------------------------------------------------------------
    # Attempt-pair API
    # ------------------------------------------------------------------
    def add_attempt(self, plan: ExecutionPlan, attempt: AttemptResult) -> None:
        """Append one aligned (plan, attempt) pair (the coordinator's path)."""
        self.plans.append(plan)
        self.attempts.append(attempt)
        self._pairs.append((plan, attempt))

    def attempt_pairs(self) -> list[tuple[ExecutionPlan, AttemptResult]]:
        """Aligned (plan, attempt) pairs, oldest first, as a concrete list.

        The returned list is shared with the record — callers must not
        mutate it.  Records whose ``plans``/``attempts`` lists were populated
        directly (tests, deserialization) are re-paired on demand.
        """
        if len(self._pairs) != len(self.attempts) or len(self._pairs) != len(self.plans):
            self._pairs = list(zip(self.plans, self.attempts))
        return self._pairs

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)
