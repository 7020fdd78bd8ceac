"""Regression tests for the coordinator/Houdini restart convergence guarantee.

A model that chronically declares a partition finished too early (OP4) used
to make the retry loop spin: every restart re-applied the same bad
early-prepare call, the transaction touched the "finished" partition again,
and the coordinator eventually gave up with a :class:`TransactionError`.
Restarts now become progressively more conservative — the offending
partition is pinned, and from the second restart the early-prepare
optimization is disabled entirely — so every transaction converges.
"""

from __future__ import annotations

import pytest

from repro.engine.engine import AttemptOutcome, AttemptResult
from repro.houdini import Houdini, HoudiniConfig, HoudiniRuntime, PathEstimate
from repro.houdini.houdini import HoudiniPlan
from repro.markov import MarkovModel, PathStep
from repro.strategies import HoudiniStrategy
from repro.types import PartitionSet, ProcedureRequest, QueryType


def _make_model(num_partitions: int = 2) -> MarkovModel:
    """A two-query model whose second query revisits partition 1."""
    model = MarkovModel("Proc", num_partitions)
    steps = [
        PathStep("QueryA", QueryType.READ, PartitionSet.of([0]), PartitionSet.of([]), 0),
        PathStep("QueryB", QueryType.READ, PartitionSet.of([1]), PartitionSet.of([0]), 0),
    ]
    for _ in range(20):
        model.add_path(steps, aborted=False)
    model.process()
    return model


class TestRuntimeEarlyPrepareControls:
    def test_allow_early_prepare_false_never_marks_partitions_finished(self):
        model = _make_model()
        config = HoudiniConfig(confidence_threshold=0.0, op4_floor=0.0)
        runtime = HoudiniRuntime(
            model,
            PathEstimate(procedure="Proc"),
            config,
            predicted_single_partition=False,
            undo_initially_disabled=False,
            allow_early_prepare=False,
        )
        assert runtime.allow_early_prepare is False

    def test_never_finish_partition_is_excluded(self):
        model = _make_model()
        config = HoudiniConfig(confidence_threshold=0.0, op4_floor=0.0)
        runtime = HoudiniRuntime(
            model,
            PathEstimate(procedure="Proc"),
            config,
            predicted_single_partition=False,
            undo_initially_disabled=False,
            never_finish=frozenset({1}),
        )
        assert 1 in runtime.never_finish

    def test_default_runtime_allows_early_prepare(self):
        model = _make_model()
        runtime = HoudiniRuntime(
            model,
            PathEstimate(procedure="Proc"),
            HoudiniConfig(),
            predicted_single_partition=True,
            undo_initially_disabled=False,
        )
        assert runtime.allow_early_prepare is True
        assert runtime.never_finish == frozenset()


class TestPlanRestartConservatism:
    def test_second_restart_disables_early_prepare(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            tpcc_artifacts.global_provider(),
            tpcc_artifacts.mappings,
            HoudiniConfig(conservative_restarts=True),
        )
        request = tpcc_artifacts.benchmark.generator.next_request()
        first = houdini.plan_restart(request, 0, attempt_number=1)
        second = houdini.plan_restart(request, 0, attempt_number=2)
        assert first.runtime.allow_early_prepare is True
        assert second.runtime.allow_early_prepare is False

    def test_paper_literal_mode_keeps_early_prepare(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            tpcc_artifacts.global_provider(),
            tpcc_artifacts.mappings,
            HoudiniConfig(conservative_restarts=False),
        )
        request = tpcc_artifacts.benchmark.generator.next_request()
        third = houdini.plan_restart(request, 0, attempt_number=3)
        assert third.runtime.allow_early_prepare is True

    def test_never_finish_is_propagated_to_restart_runtime(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            tpcc_artifacts.global_provider(),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
        )
        request = tpcc_artifacts.benchmark.generator.next_request()
        plan = houdini.plan_restart(request, 0, never_finish=frozenset({3}))
        assert 3 in plan.runtime.never_finish
        assert plan.plan.locked_partitions is None
        assert plan.plan.undo_logging is True


class TestStrategyNeverFinishAccumulation:
    def test_finish_misprediction_pins_partition_on_restart(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            tpcc_artifacts.global_provider(),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
        )
        strategy = HoudiniStrategy(houdini)
        request = tpcc_artifacts.benchmark.generator.next_request()
        initial_plan = strategy.plan_initial(request)
        # Fabricate a failed attempt caused by an OP4 misprediction on
        # partition 1 and verify the restart pins that partition.
        strategy._current_plans[-1].runtime.stats.finish_mispredicted = True
        failed = AttemptResult(
            outcome=AttemptOutcome.MISPREDICTION,
            procedure=request.procedure,
            parameters=request.parameters,
            base_partition=initial_plan.base_partition,
            touched_partitions=PartitionSet.of([0, 1]),
            mispredicted_partition=1,
        )
        strategy.plan_restart(request, initial_plan, failed, 1)
        assert 1 in strategy._never_finish
        restart_runtime = strategy._current_plans[-1].runtime
        assert 1 in restart_runtime.never_finish

    def test_new_transaction_resets_pinned_partitions(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            tpcc_artifacts.global_provider(),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
        )
        strategy = HoudiniStrategy(houdini)
        strategy._never_finish = {0, 1}
        request = tpcc_artifacts.benchmark.generator.next_request()
        strategy.plan_initial(request)
        assert strategy._never_finish == set()


class TestEndToEndConvergence:
    def test_auctionmark_partitioned_models_always_converge(self):
        """The original failure: PostAuction under houdini-partitioned."""
        from repro.session import Cluster, ClusterSpec

        spec = ClusterSpec(
            benchmark="auctionmark", num_partitions=8, trace_transactions=400, seed=3,
            strategy="houdini-partitioned",
        )
        with Cluster.open(spec) as session:
            result = session.run_for(txns=400)
        # Convergence means the run completes; every transaction either
        # committed or was a genuine user abort.
        assert result.committed + result.user_aborted == 400
