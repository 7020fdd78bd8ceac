"""Tests for the workload-drift / reorganization advisor."""

from __future__ import annotations

import pytest

from repro.advisor import (
    AdvisorThresholds,
    Recommendation,
    RecommendationKind,
    WorkloadAdvisor,
)
from repro.houdini import HoudiniConfig, HoudiniStats, ModelMaintenance
from repro.markov import MarkovModel, PathStep
from repro.sim.metrics import SimulationResult
from repro.types import PartitionSet, QueryType


def _result(
    *,
    committed: int = 100,
    restarts: int = 0,
    single: int = 90,
    distributed: int = 10,
    latencies: list[float] | None = None,
) -> SimulationResult:
    result = SimulationResult(
        strategy="houdini",
        benchmark="tpcc",
        num_partitions=8,
        simulated_duration_ms=1000.0,
        committed=committed,
        restarts=restarts,
        single_partition=single,
        distributed=distributed,
    )
    result.latencies_ms = latencies or [5.0] * committed
    return result


def _stats(**procedures) -> HoudiniStats:
    """Build HoudiniStats from keyword procedure specs."""
    stats = HoudiniStats()
    for name, spec in procedures.items():
        procedure = stats.for_procedure(name)
        procedure.transactions = spec.get("transactions", 100)
        procedure.estimates = procedure.transactions
        procedure.op1_correct = spec.get("op1", procedure.transactions)
        procedure.op2_correct = spec.get("op2", procedure.transactions)
        procedure.op2_enabled = procedure.transactions
        procedure.op1_enabled = procedure.transactions
        procedure.estimation_wall_ms_total = spec.get("estimation_ms", 10.0)
    return stats


class TestHealthyWorkload:
    def test_no_recommendations_for_healthy_run(self):
        advisor = WorkloadAdvisor()
        report = advisor.analyze(_stats(neworder={}), _result())
        assert len(report) == 0
        assert "No reorganization" in report.describe()

    def test_empty_inputs_yield_empty_report(self):
        report = WorkloadAdvisor().analyze()
        assert len(report) == 0


class TestRestartDrivenRecommendations:
    def test_high_restart_rate_triggers_model_regeneration(self):
        advisor = WorkloadAdvisor()
        report = advisor.analyze(result=_result(restarts=30))
        assert report.has(RecommendationKind.REGENERATE_MODELS)

    def test_restart_threshold_is_respected(self):
        advisor = WorkloadAdvisor(AdvisorThresholds(restart_rate=0.5))
        report = advisor.analyze(result=_result(restarts=30))
        assert not report.has(RecommendationKind.REGENERATE_MODELS)


class TestDistributionRecommendations:
    def test_distributed_heavy_workload_triggers_repartition(self):
        report = WorkloadAdvisor().analyze(result=_result(single=40, distributed=60))
        assert report.has(RecommendationKind.REPARTITION)
        recommendation = report.by_kind(RecommendationKind.REPARTITION)[0]
        assert recommendation.evidence["distributed_fraction"] == pytest.approx(0.6)

    def test_single_partition_workload_does_not_trigger_repartition(self):
        report = WorkloadAdvisor().analyze(result=_result(single=95, distributed=5))
        assert not report.has(RecommendationKind.REPARTITION)

    def test_saturated_single_partition_workload_triggers_scale_out(self):
        result = _result(single=98, distributed=2, latencies=[120.0] * 100)
        report = WorkloadAdvisor().analyze(result=result)
        assert report.has(RecommendationKind.SCALE_OUT)

    def test_fast_single_partition_workload_does_not_scale_out(self):
        result = _result(single=98, distributed=2, latencies=[2.0] * 100)
        report = WorkloadAdvisor().analyze(result=result)
        assert not report.has(RecommendationKind.SCALE_OUT)


class TestMaintenanceDrivenRecommendations:
    @staticmethod
    def _maintenance(recomputations: int, checks: int) -> ModelMaintenance:
        model = MarkovModel("Proc", 2)
        model.add_path(
            [PathStep("Q", QueryType.READ, PartitionSet.of([0]), PartitionSet.of([]), 0)],
            aborted=False,
        )
        model.process()
        maintenance = ModelMaintenance(model, HoudiniConfig())
        maintenance.stats.accuracy_checks = checks
        maintenance.stats.recomputations = recomputations
        return maintenance

    def test_frequent_recomputation_triggers_regeneration(self):
        maintenance = self._maintenance(recomputations=5, checks=10)
        report = WorkloadAdvisor().analyze(maintenances=[maintenance])
        assert report.has(RecommendationKind.REGENERATE_MODELS)

    def test_rare_recomputation_is_tolerated(self):
        maintenance = self._maintenance(recomputations=1, checks=100)
        report = WorkloadAdvisor().analyze(maintenances=[maintenance])
        assert not report.has(RecommendationKind.REGENERATE_MODELS)


class TestProcedureLevelRecommendations:
    def test_predictable_procedures_suggest_estimate_cache(self):
        stats = _stats(GetSubscriberData={"estimation_ms": 50.0})
        report = WorkloadAdvisor().analyze(stats)
        assert report.has(RecommendationKind.ENABLE_ESTIMATE_CACHE)
        recommendation = report.by_kind(RecommendationKind.ENABLE_ESTIMATE_CACHE)[0]
        assert "GetSubscriberData" in recommendation.procedures

    def test_chronically_mispredicted_procedures_suggest_disabling(self):
        stats = _stats(PostAuction={"op1": 10, "op2": 10})
        report = WorkloadAdvisor().analyze(stats)
        assert report.has(RecommendationKind.DISABLE_PREDICTION)
        recommendation = report.by_kind(RecommendationKind.DISABLE_PREDICTION)[0]
        assert recommendation.procedures == ("PostAuction",)

    def test_thin_procedures_are_not_judged(self):
        stats = _stats(Rare={"transactions": 3, "op1": 0, "op2": 0})
        report = WorkloadAdvisor().analyze(stats)
        assert not report.has(RecommendationKind.DISABLE_PREDICTION)

    def test_describe_includes_procedures_and_evidence(self):
        recommendation = Recommendation(
            kind=RecommendationKind.REPARTITION,
            reason="too many distributed transactions",
            evidence={"distributed_fraction": 0.61},
            procedures=("neworder",),
        )
        text = recommendation.describe()
        assert "repartition" in text
        assert "neworder" in text
        assert "0.61" in text


class TestEndToEndAdvisor:
    def test_advisor_consumes_real_simulation_output(self, tpcc_artifacts):
        """Run a real (tiny) simulation and feed its statistics through the
        advisor; the healthy TPC-C run should not demand model regeneration
        at a high restart threshold."""
        from repro import pipeline

        strategy = pipeline.make_strategy("houdini", tpcc_artifacts)
        result = pipeline.simulate(tpcc_artifacts, strategy, transactions=150)
        advisor = WorkloadAdvisor(AdvisorThresholds(restart_rate=0.9))
        report = advisor.analyze(strategy.stats, result)
        assert not report.has(RecommendationKind.REGENERATE_MODELS)
