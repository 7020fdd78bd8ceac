"""Tests for the Houdini facade and its statistics."""

import pytest

from repro.houdini import GlobalModelProvider, Houdini, HoudiniConfig
from repro.houdini.stats import HoudiniStats, ProcedureStats
from repro.strategies import HoudiniStrategy
from repro.txn import TransactionCoordinator
from repro.types import ProcedureRequest


class TestHoudiniPlanning:
    def test_plan_produces_runtime_and_decision(self, tpcc_houdini):
        plan = tpcc_houdini.plan(
            ProcedureRequest.of("payment", (0, 0, 0, 0, 1, 5.0))
        )
        # The session-scoped instance caches by default, so a repeat of this
        # request in the same session legitimately plans from the cache.
        assert plan.plan.source in ("houdini", "houdini:cached")
        assert plan.plan.estimation_ms > 0
        assert plan.runtime is not None
        assert plan.decision.base_partition == 0

    def test_plan_restart_locks_everything(self, tpcc_houdini):
        restart = tpcc_houdini.plan_restart(
            ProcedureRequest.of("neworder", (0, 0, 1, (1,), (0,), (1,))), base_partition=0
        )
        assert restart.plan.locked_partitions is None
        assert restart.plan.undo_logging
        assert restart.plan.source == "houdini:restart"

    def test_estimate_only_interface(self, tpcc_houdini):
        estimate = tpcc_houdini.estimate(
            ProcedureRequest.of("orderstatus", (0, 0, 1))
        )
        assert estimate.procedure == "orderstatus"
        assert estimate.reached_terminal

    def test_stats_accumulate_per_procedure(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            GlobalModelProvider(tpcc_artifacts.models),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
            learning=False,
        )
        for _ in range(3):
            houdini.plan(ProcedureRequest.of("payment", (0, 0, 0, 0, 1, 5.0)))
        stats = houdini.stats.for_procedure("payment")
        assert stats.transactions == 3
        assert stats.estimates == 3
        assert houdini.stats.total_transactions == 3
        assert houdini.stats.average_estimation_ms() > 0


class TestHoudiniStats:
    def test_rates(self):
        stats = ProcedureStats("p", transactions=10, op1_correct=9, op3_enabled=5)
        assert stats.op1_rate == pytest.approx(90.0)
        assert stats.op3_rate == pytest.approx(50.0)
        assert ProcedureStats("empty").op1_rate == 0.0



class TestHoudiniStrategyIntegration:
    def test_strategy_runs_workload_and_never_corrupts(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            GlobalModelProvider(tpcc_artifacts.models),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
            learning=True,
        )
        strategy = HoudiniStrategy(houdini)
        coordinator = TransactionCoordinator(
            tpcc_artifacts.benchmark.catalog, tpcc_artifacts.benchmark.database, strategy
        )
        requests = tpcc_artifacts.benchmark.generator.generate(120)
        records = [coordinator.execute_transaction(request) for request in requests]
        committed = sum(1 for record in records if record.committed)
        user_aborted = sum(1 for record in records if record.user_aborted)
        assert committed + user_aborted == len(records)
        # The undo-log safety invariant: no unrecoverable aborts happened
        # (execution would have raised otherwise) and the strategy produced
        # statistics for every procedure it saw.
        assert strategy.stats.total_transactions >= len(records)
