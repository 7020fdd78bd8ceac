"""Tests for optimization selection (OP1-OP4) and Houdini configuration."""

import pytest

from repro.houdini import (
    GlobalModelProvider,
    HoudiniConfig,
    OptimizationSelector,
    PathEstimator,
)
from repro.types import ProcedureRequest


class TestHoudiniConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            HoudiniConfig(confidence_threshold=1.5)
        with pytest.raises(ValueError):
            HoudiniConfig(abort_tolerance=-0.1)
        with pytest.raises(ValueError):
            HoudiniConfig(max_path_length=0)

    def test_a_dict_naming_the_deleted_precompute_tables_is_refused(self):
        """A processed model always has its tables, so the old switch is gone;
        a saved config that still sets it fails loudly, naming the field."""
        data = HoudiniConfig().to_dict()
        data["precompute_tables"] = False
        with pytest.raises(ValueError, match="precompute_tables"):
            HoudiniConfig.from_dict(data)

    def test_estimation_cost_model(self):
        config = HoudiniConfig()
        base_only = config.estimation_cost_ms(0, 0)
        with_work = config.estimation_cost_ms(100, 20)
        assert with_work > base_only > 0


@pytest.fixture(scope="module")
def selector_setup(tpcc_artifacts):
    catalog = tpcc_artifacts.benchmark.catalog
    config = HoudiniConfig(confidence_threshold=0.5)
    estimator = PathEstimator(
        catalog, GlobalModelProvider(tpcc_artifacts.models), tpcc_artifacts.mappings, config
    )
    selector = OptimizationSelector(config, catalog.num_partitions, 2)
    return estimator, selector, tpcc_artifacts.models


class TestOptimizationSelection:
    def test_single_partition_neworder_plan(self, selector_setup):
        estimator, selector, models = selector_setup
        request = ProcedureRequest.of("neworder", (1, 0, 1, (1, 2), (1, 1), (1, 1)))
        estimate = estimator.estimate(request)
        decision = selector.decide(request, estimate, models["neworder"])
        assert decision.base_partition == 1
        assert decision.locked_partitions.partitions == (1,)
        assert decision.predicted_single_partition
        assert decision.op1_selected and decision.op2_selected

    def test_remote_payment_locks_both_partitions(self, selector_setup):
        estimator, selector, models = selector_setup
        request = ProcedureRequest.of("payment", (0, 0, 2, 0, 1, 5.0))
        estimate = estimator.estimate(request)
        decision = selector.decide(request, estimate, models["payment"])
        assert set(decision.locked_partitions) == {0, 2}
        assert not decision.predicted_single_partition
        assert not decision.disable_undo  # distributed transactions keep undo

    def test_threshold_zero_locks_every_partition(self, tpcc_artifacts):
        catalog = tpcc_artifacts.benchmark.catalog
        config = HoudiniConfig(confidence_threshold=0.0)
        estimator = PathEstimator(
            catalog, GlobalModelProvider(tpcc_artifacts.models),
            tpcc_artifacts.mappings, config,
        )
        selector = OptimizationSelector(config, catalog.num_partitions, 2)
        request = ProcedureRequest.of("payment", (0, 0, 0, 0, 1, 5.0))
        decision = selector.decide(
            request, estimator.estimate(request), tpcc_artifacts.models["payment"]
        )
        # The paper: at threshold 0 Houdini predicts every transaction will
        # touch all partitions, so everything runs as multi-partition.
        assert len(decision.locked_partitions) == catalog.num_partitions

    def test_degenerate_estimate_falls_back_to_distributed(self, selector_setup):
        estimator, selector, _ = selector_setup
        from repro.houdini.estimate import PathEstimate

        request = ProcedureRequest.of("payment", (0, 0, 0, 0, 1, 5.0), arrival_node=1)
        decision = selector.decide(request, PathEstimate(procedure="payment", degenerate=True), None)
        assert len(decision.locked_partitions) == 4
        assert not decision.disable_undo
        assert decision.base_partition == 2  # first partition of arrival node 1

    def test_undo_disabled_only_with_certain_no_abort(self, selector_setup):
        estimator, selector, models = selector_setup
        # Payment never aborts: once support is sufficient the selector may
        # disable undo logging for home payments.
        request = ProcedureRequest.of("payment", (1, 0, 1, 0, 2, 5.0))
        estimate = estimator.estimate(request)
        decision = selector.decide(request, estimate, models["payment"])
        assert decision.predicted_single_partition
        if decision.disable_undo:
            assert estimate.abort_probability <= selector.config.abort_tolerance

    def test_neworder_with_possible_remote_keeps_undo(self, selector_setup):
        estimator, selector, models = selector_setup
        request = ProcedureRequest.of("neworder", (0, 0, 1, (1, 2), (0, 0), (1, 1)))
        estimate = estimator.estimate(request)
        decision = selector.decide(request, estimate, models["neworder"])
        # The model still sees a small probability of remote stock access, so
        # the plan-time OP3 decision must stay conservative.
        assert not decision.disable_undo

    def test_plan_conversion(self, selector_setup):
        estimator, selector, models = selector_setup
        request = ProcedureRequest.of("payment", (0, 0, 0, 0, 1, 5.0))
        decision = selector.decide(
            request, estimator.estimate(request), models["payment"]
        )
        plan = decision.as_plan(0.123, source="test")
        assert plan.estimation_ms == 0.123
        assert plan.source == "test"
        assert plan.base_partition == decision.base_partition
        assert plan.undo_logging == (not decision.disable_undo)
