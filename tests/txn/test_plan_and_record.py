"""Tests for execution plans and transaction records."""

from repro.engine.engine import AttemptOutcome, AttemptResult
from repro.txn import ExecutionPlan, TransactionRecord
from repro.types import PartitionSet, ProcedureRequest, QueryInvocation, QueryType


def make_attempt(outcome=AttemptOutcome.COMMITTED, partitions=(0,), queries=2):
    invocations = [
        QueryInvocation("Q", (1,), PartitionSet.of(partitions), counter=i, query_type=QueryType.READ)
        for i in range(queries)
    ]
    return AttemptResult(
        outcome=outcome,
        procedure="p",
        parameters=(1,),
        base_partition=partitions[0],
        touched_partitions=PartitionSet.of(partitions),
        invocations=invocations,
    )


class TestExecutionPlan:
    def test_lock_set_none_means_everything(self):
        plan = ExecutionPlan(base_partition=0, locked_partitions=None)
        assert plan.lock_set(4).partitions == (0, 1, 2, 3)
        assert plan.lock_set(1).partitions == (0,)

    def test_explicit_lock_set(self):
        plan = ExecutionPlan(base_partition=1, locked_partitions=PartitionSet.of([1]))
        assert plan.lock_set(8).partitions == (1,)


class TestTransactionRecord:
    def test_committed_and_restart_counts(self):
        record = TransactionRecord(txn_id=1, request=ProcedureRequest.of("p", (1,)))
        record.plans.append(ExecutionPlan(0, PartitionSet.of([0])))
        record.attempts.append(make_attempt(AttemptOutcome.MISPREDICTION))
        record.plans.append(ExecutionPlan(0, None))
        record.attempts.append(make_attempt(AttemptOutcome.COMMITTED, partitions=(0, 1)))
        assert record.committed
        assert record.restarts == 1
        assert not record.final_attempt.single_partitioned
        assert record.final_plan.locked_partitions is None

    def test_user_abort_flag(self):
        record = TransactionRecord(txn_id=2, request=ProcedureRequest.of("p", (1,)))
        record.plans.append(ExecutionPlan(0, PartitionSet.of([0])))
        record.attempts.append(make_attempt(AttemptOutcome.USER_ABORT))
        assert record.user_aborted
        assert not record.committed
