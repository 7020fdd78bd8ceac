"""Tests for the closed-loop simulator and its metrics."""

import pytest

from repro.session import Cluster, ClusterSpec, build_strategy
from repro.sim import CostModel, SimulationResult
from repro.sim.metrics import ProcedureBreakdown
from tests.conftest import trained


class TestMetrics:
    def test_breakdown_percentages_sum_to_100(self):
        breakdown = ProcedureBreakdown(
            "p", transactions=2, estimation_ms=1, planning_ms=1,
            execution_ms=6, coordination_ms=1, other_ms=1,
        )
        assert sum(breakdown.percentages().values()) == pytest.approx(100.0)
        assert breakdown.average_latency_ms == pytest.approx(5.0)

    def test_result_throughput_uses_window(self):
        result = SimulationResult("s", "b", 4, simulated_duration_ms=1000.0, committed=100)
        result.window_committed = 50
        result.window_duration_ms = 500.0
        assert result.throughput_txn_per_sec == pytest.approx(100.0)

    def test_result_summary_row(self):
        result = SimulationResult("s", "b", 4, simulated_duration_ms=100.0, committed=10)
        row = result.summary_row()
        assert row["strategy"] == "s" and row["partitions"] == 4


class TestSimulator:
    @pytest.fixture(scope="class")
    def simulation_pair(self):
        """Oracle vs assume-distributed on the same tiny TPC-C workload."""
        results = {}
        for mode in ("oracle", "assume-distributed"):
            spec = ClusterSpec(benchmark="tpcc", num_partitions=4, strategy=mode)
            with Cluster.open(spec, artifacts=trained("tpcc", 4, 200, 21)) as session:
                results[mode] = session.run_for(txns=200)
        return results

    def test_all_transactions_accounted(self, simulation_pair):
        for result in simulation_pair.values():
            assert result.total_transactions == 200
            assert len(result.latencies_ms) == 200
            assert result.simulated_duration_ms > 0

    def test_oracle_beats_assume_distributed(self, simulation_pair):
        assert (
            simulation_pair["oracle"].throughput_txn_per_sec
            > 2 * simulation_pair["assume-distributed"].throughput_txn_per_sec
        )

    def test_breakdowns_cover_procedures(self, simulation_pair):
        result = simulation_pair["oracle"]
        assert "neworder" in result.breakdowns
        assert result.breakdowns["neworder"].total_ms > 0

    def test_deterministic_given_seed(self):
        def run():
            spec = ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle")
            with Cluster.open(spec, artifacts=trained("tatp", 4, 150, 5)) as session:
                return session.run_for(txns=150)

        first, second = run(), run()
        assert first.throughput_txn_per_sec == pytest.approx(second.throughput_txn_per_sec)
        assert first.committed == second.committed

    def test_custom_cost_model_changes_throughput(self):
        def run(cost_model):
            spec = ClusterSpec(
                benchmark="tatp", num_partitions=4, strategy="oracle", cost_model=cost_model
            )
            with Cluster.open(spec, artifacts=trained("tatp", 4, 150, 6)) as session:
                return session.run_for(txns=150)

        baseline = run(None)
        slow = run(CostModel(query_local_ms=2.0))
        assert slow.throughput_txn_per_sec < baseline.throughput_txn_per_sec

    def test_houdini_overhead_tracked(self, tpcc_artifacts):
        session = Cluster.open(
            ClusterSpec(benchmark="tpcc"), artifacts=tpcc_artifacts,
            strategy=build_strategy("houdini", tpcc_artifacts),
        )
        result = session.run_for(txns=150)
        assert result.overall_estimation_share() > 0
        assert result.undo_disabled >= 0
