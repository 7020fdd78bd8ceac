"""End-to-end integration tests across every subsystem.

These are the "does the whole pipeline hold together" tests: train from a
trace, plan with Houdini, execute through the coordinator, simulate
throughput, and check the paper's qualitative relationships.
"""

import pytest

from repro.evaluation import AccuracyEvaluator
from repro.houdini import Houdini, HoudiniConfig
from repro.session import Cluster, ClusterSpec, build_strategy, record_trace, train
from repro.txn import TransactionCoordinator


class TestFullPipeline:
    @pytest.mark.parametrize("benchmark_name", ["tatp", "tpcc", "auctionmark"])
    def test_train_plan_execute_for_every_benchmark(self, benchmark_name):
        artifacts = train(ClusterSpec(
            benchmark=benchmark_name, num_partitions=4, trace_transactions=300, seed=13
        ))
        strategy = build_strategy("houdini", artifacts)
        coordinator = TransactionCoordinator(
            artifacts.benchmark.catalog, artifacts.benchmark.database, strategy
        )
        records = [
            coordinator.execute_transaction(request)
            for request in artifacts.benchmark.generator.generate(150)
        ]
        committed = sum(record.committed for record in records)
        assert committed > 0.9 * len(records) * 0.9
        # Every record either committed or was a legitimate user abort.
        assert all(record.committed or record.user_aborted for record in records)
        # Houdini produced estimates for (almost) every transaction.
        assert strategy.houdini.stats.total_transactions >= len(records)

    def test_houdini_beats_baseline_and_stays_near_oracle(self):
        throughputs = {}
        for mode in ("assume-single-partition", "houdini", "oracle"):
            spec = ClusterSpec(
                benchmark="tatp", num_partitions=8, trace_transactions=500, seed=17,
                strategy=mode,
            )
            with Cluster.open(spec) as session:
                result = session.run_for(txns=400)
            throughputs[mode] = result.throughput_txn_per_sec
        assert throughputs["houdini"] > throughputs["assume-single-partition"]
        assert throughputs["oracle"] >= throughputs["houdini"] * 0.8

    def test_accuracy_against_fresh_workload(self):
        artifacts = train(ClusterSpec(
            benchmark="tpcc", num_partitions=4, trace_transactions=500, seed=19
        ))
        houdini = Houdini(
            artifacts.benchmark.catalog,
            artifacts.global_provider(),
            artifacts.mappings,
            HoudiniConfig(),
            learning=False,
        )
        held_out = record_trace(artifacts.benchmark, 200)
        report = AccuracyEvaluator(houdini).evaluate(held_out)
        # The abort optimization must never be mispredicted (paper §6.2).
        assert report.op3 == 100.0
        assert report.total > 60.0

    def test_saved_trace_round_trips_through_model_building(self, tmp_path):
        artifacts = train(ClusterSpec(
            benchmark="tatp", num_partitions=4, trace_transactions=200, seed=23
        ))
        path = tmp_path / "tatp-trace.jsonl"
        artifacts.trace.save(path)
        from repro.workload import WorkloadTrace
        from repro.markov import build_models_from_trace

        reloaded = WorkloadTrace.load(path)
        models = build_models_from_trace(artifacts.benchmark.catalog, reloaded)
        assert set(models) == set(artifacts.models)
        for name, model in models.items():
            assert model.vertex_count() == artifacts.models[name].vertex_count()
