"""Tests for run-time monitoring (OP3/OP4 updates) and model maintenance."""

import pytest

from repro.engine import ExecutionEngine
from repro.houdini import (
    GlobalModelProvider,
    Houdini,
    HoudiniConfig,
    MaintenanceRegistry,
    ModelMaintenance,
)
from repro.markov import MarkovModel, PathStep
from repro.markov.vertex import VertexKey
from repro.types import PartitionSet, ProcedureRequest, QueryType
from tests.conftest import add_path


@pytest.fixture
def houdini(tpcc_artifacts):
    config = HoudiniConfig(op3_min_observations=5)
    return Houdini(
        tpcc_artifacts.benchmark.catalog,
        GlobalModelProvider(tpcc_artifacts.models),
        tpcc_artifacts.mappings,
        config,
        learning=True,
    )


class TestRuntimeUpdates:
    def test_runtime_disables_undo_for_home_payment(self, houdini, tpcc_artifacts):
        engine = ExecutionEngine(
            tpcc_artifacts.benchmark.catalog, tpcc_artifacts.benchmark.database
        )
        request = ProcedureRequest.of("payment", (1, 0, 1, 0, 2, 5.0))
        plan = houdini.plan(request)
        attempt = engine.execute_attempt(
            request,
            base_partition=plan.plan.base_partition,
            locked_partitions=plan.plan.locked_partitions,
            undo_enabled=plan.plan.undo_logging,
            listeners=[plan.runtime],
        )
        assert attempt.committed
        undo_off = (not plan.plan.undo_logging) or (
            plan.runtime.stats.undo_disabled_at_query is not None
        )
        assert undo_off
        # Either way some undo records must have been skipped (the saving).
        assert attempt.undo_records_skipped > 0

    def test_runtime_early_prepares_remote_payment_partition(self, houdini, tpcc_artifacts):
        engine = ExecutionEngine(
            tpcc_artifacts.benchmark.catalog, tpcc_artifacts.benchmark.database
        )
        request = ProcedureRequest.of("payment", (0, 0, 1, 0, 2, 5.0))
        plan = houdini.plan(request)
        attempt = engine.execute_attempt(
            request,
            base_partition=plan.plan.base_partition,
            locked_partitions=plan.plan.locked_partitions,
            undo_enabled=plan.plan.undo_logging,
            listeners=[plan.runtime],
        )
        assert attempt.committed
        # The remote (customer) partition is finished after the customer
        # update; Houdini should have early-prepared it (OP4).
        assert 1 in plan.runtime.stats.finished_partitions
        assert not plan.runtime.stats.finish_mispredicted

    def test_runtime_tracks_deviation_and_placeholders(self, houdini, tpcc_artifacts):
        model = tpcc_artifacts.models["payment"]
        before = model.vertex_count()
        engine = ExecutionEngine(
            tpcc_artifacts.benchmark.catalog, tpcc_artifacts.benchmark.database
        )
        # A payment whose customer district differs from everything sampled
        # is still a known structure, so run one and verify transitions were
        # recorded for maintenance.
        request = ProcedureRequest.of("payment", (2, 1, 2, 1, 3, 9.0))
        plan = houdini.plan(request)
        engine.execute_attempt(
            request,
            base_partition=plan.plan.base_partition,
            locked_partitions=plan.plan.locked_partitions,
            undo_enabled=plan.plan.undo_logging,
            listeners=[plan.runtime],
        )
        plan.runtime.finish(committed=True)
        assert plan.runtime.stats.queries_observed == 7
        # One transition per query plus the terminal commit transition.
        assert len(plan.runtime.stats.transitions) == 8
        assert plan.runtime.stats.transitions[-1][1] == model.commit
        assert model.vertex_count() >= before


class TestMaintenance:
    def make_model(self):
        model = MarkovModel("p", 2)
        step_a = PathStep("A", QueryType.READ, PartitionSet.of([0]), PartitionSet.of([]), 0)
        step_b = PathStep("B", QueryType.READ, PartitionSet.of([0]), PartitionSet.of([0]), 0)
        for _ in range(10):
            add_path(model, [step_a, step_b], aborted=False)
        model.process()
        return model, step_a.key(), step_b.key()

    def test_accuracy_perfect_when_distribution_matches(self):
        model, key_a, key_b = self.make_model()
        maintenance = ModelMaintenance(model, HoudiniConfig(maintenance_min_observations=5))
        model.log_transitions([(model.begin, key_a), (key_a, key_b)] * 10)
        assert maintenance.vertex_accuracy(key_a) == pytest.approx(1.0)
        assert not maintenance.check()
        assert maintenance.stats.recomputations == 0

    def test_drift_triggers_recomputation(self):
        model, key_a, key_b = self.make_model()
        maintenance = ModelMaintenance(model, HoudiniConfig(maintenance_min_observations=5))
        # The workload shifted: transactions now abort right after A.
        for _ in range(30):
            model.log_transitions([(key_a, model.abort)])
        assert maintenance.vertex_accuracy(key_a) < 0.75
        assert maintenance.check()
        assert maintenance.stats.recomputations == 1
        # After recomputation the abort transition dominates.
        assert model.edge_probability(key_a, model.abort) > 0.5
        assert not model.stale

    def test_recompute_refreshes_every_table(self):
        model, key_a, _ = self.make_model()
        maintenance = ModelMaintenance(model, HoudiniConfig(maintenance_min_observations=5))
        for _ in range(30):
            model.log_transitions([(model.begin, key_a), (key_a, model.abort)])
        assert maintenance.check()
        for vertex in model.vertices():
            assert vertex.table is not None, vertex.key
            assert vertex.table.approx_equal(model._table_for(vertex.key)), vertex.key
        assert model.probability_table(model.begin).abort == pytest.approx(0.75)

    def test_registry_reuses_maintenance_per_model(self):
        model, _, _ = self.make_model()
        registry = MaintenanceRegistry(HoudiniConfig())
        first = registry.for_model(model)
        second = registry.for_model(model)
        assert first is second
        assert registry.check_all() == []


class TestLearningOffNeverWritesTheModels:
    def test_learning_off_session_leaves_every_model_untouched(self):
        """A learning-off attempt may reach states the model has never seen;
        it must not add placeholder vertices for them (a vertex without an
        inbound edge or a table can influence no walk, yet it would move
        ``model.version`` and void every memoized walk)."""
        import hashlib
        import json

        from repro.markov.serialization import model_to_dict
        from repro.session import Cluster, ClusterSpec

        session = Cluster.open(ClusterSpec(
            benchmark="smallbank", num_partitions=16, strategy="houdini",
            trace_transactions=400, seed=0, learning=False,
        ))
        houdini = session.houdini

        def state():
            return {
                model.procedure: (
                    model.version,
                    hashlib.sha256(
                        json.dumps(model_to_dict(model), sort_keys=True).encode()
                    ).hexdigest(),
                )
                for model in houdini.provider.models()
            }

        before = state()
        result = session.run_for(txns=2000)
        assert state() == before
        # The premise: some attempts did leave the modelled states.
        assert result.restarts > 0 or any(
            stats.mispredicted_restarts for stats in houdini.stats.procedures.values()
        )
        memo = houdini.estimate_cache
        assert memo.stats.invalidations == 0
        assert memo.stats.misses == memo.stats.stores == len(memo)
        session.close()
