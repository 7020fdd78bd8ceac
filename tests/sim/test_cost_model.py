"""Tests for the simulator's cost model."""

import pytest

from repro.engine.engine import AttemptOutcome, AttemptResult
from repro.errors import SimulationError
from repro.sim import CostModel
from repro.txn import ExecutionPlan
from repro.types import PartitionSet, QueryInvocation, QueryType


def make_attempt(partitions_per_query, committed=True, undo_records=0, finished=()):
    invocations = []
    counters = {}
    for partitions in partitions_per_query:
        name = "Q"
        counter = counters.get(name, 0)
        counters[name] = counter + 1
        invocations.append(QueryInvocation(
            name, (), PartitionSet.of(partitions), counter, QueryType.READ
        ))
    touched = PartitionSet.of([p for ps in partitions_per_query for p in ps])
    return AttemptResult(
        outcome=AttemptOutcome.COMMITTED if committed else AttemptOutcome.MISPREDICTION,
        procedure="p",
        parameters=(),
        base_partition=0,
        touched_partitions=touched,
        invocations=invocations,
        undo_records_written=undo_records,
        finished_partitions=frozenset(finished),
    )


class TestQueryCost:
    def test_local_cheaper_than_remote(self):
        model = CostModel()
        assert model.query_cost([0], 0) < model.query_cost([1], 0)

    def test_broadcast_scales_with_partitions(self):
        model = CostModel()
        assert model.query_cost([0, 1, 2, 3], 0) > model.query_cost([0, 1], 0)


class TestAttemptTiming:
    def test_single_partition_has_no_coordination(self):
        model = CostModel()
        plan = ExecutionPlan(0, PartitionSet.of([0]))
        attempt = make_attempt([[0], [0], [0]], undo_records=2)
        timing = model.attempt_timing(plan, attempt, 4)
        assert timing.coordination_ms == 0.0
        assert timing.execution_ms == pytest.approx(
            3 * model.query_local_ms + 2 * model.undo_record_ms
        )
        assert timing.release_offsets[0] == timing.total_ms

    def test_distributed_pays_two_phase_commit(self):
        model = CostModel()
        plan = ExecutionPlan(0, PartitionSet.of([0, 1]))
        attempt = make_attempt([[0], [1], [0]])
        timing = model.attempt_timing(plan, attempt, 4)
        assert timing.coordination_ms >= model.two_phase_prepare_ms + model.two_phase_commit_ms

    def test_early_prepare_releases_partition_before_commit(self):
        model = CostModel()
        plan = ExecutionPlan(0, PartitionSet.of([0, 1]))
        attempt = make_attempt([[0], [1], [0], [0], [0]], finished=(1,))
        timing = model.attempt_timing(plan, attempt, 4)
        assert timing.release_offsets[1] < timing.release_offsets[0]
        # Early prepare removes the explicit prepare round.
        no_prepare = model.attempt_timing(plan, make_attempt([[0], [1], [0]], finished=()), 4)
        assert timing.coordination_ms < no_prepare.coordination_ms + 1e-9

    def test_undo_disabled_is_cheaper(self):
        model = CostModel()
        plan = ExecutionPlan(0, PartitionSet.of([0]))
        with_undo = model.attempt_timing(plan, make_attempt([[0]] * 5, undo_records=5), 4)
        without_undo = model.attempt_timing(plan, make_attempt([[0]] * 5, undo_records=0), 4)
        assert without_undo.total_ms < with_undo.total_ms

    def test_estimation_charged_into_total(self):
        model = CostModel()
        plan = ExecutionPlan(0, PartitionSet.of([0]), estimation_ms=1.5)
        timing = model.attempt_timing(plan, make_attempt([[0]]), 4)
        assert timing.total_ms >= 1.5
        assert timing.estimation_ms == 1.5

    def test_aborted_attempt_charges_abort_cost(self):
        model = CostModel()
        plan = ExecutionPlan(0, PartitionSet.of([0]))
        timing = model.attempt_timing(plan, make_attempt([[0]], committed=False), 4)
        assert timing.coordination_ms >= model.abort_ms

    def test_unused_locked_partitions_add_overhead(self):
        model = CostModel()
        narrow = ExecutionPlan(0, PartitionSet.of([0]))
        wide = ExecutionPlan(0, None)
        attempt = make_attempt([[0], [0]])
        narrow_timing = model.attempt_timing(narrow, attempt, 8)
        wide_timing = model.attempt_timing(wide, attempt, 8)
        assert wide_timing.coordination_ms > narrow_timing.coordination_ms


class TestValidation:
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_a_non_finite_cost_is_rejected(self, value):
        with pytest.raises(SimulationError, match="query_remote_ms must be a finite number"):
            CostModel(query_remote_ms=value)
