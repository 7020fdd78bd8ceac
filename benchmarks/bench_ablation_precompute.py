"""Ablation — pre-computed probability tables (paper §3.2).

The paper credits pre-computing the per-vertex probability tables with a
~24% reduction in on-line estimation time.  This benchmark measures the
model processing-phase cost with and without table pre-computation and the
resulting on-line estimation latency.
"""

import time

from repro.houdini import GlobalModelProvider, HoudiniConfig, PathEstimator
from repro.markov import MarkovModelBuilder
from repro.session import ClusterSpec, train


def _train(scale):
    return train(ClusterSpec(
        benchmark="tpcc",
        num_partitions=scale.accuracy_partitions,
        trace_transactions=scale.trace_transactions,
        seed=scale.seed,
    ))


def test_processing_phase_cost_with_and_without_tables(benchmark, scale, save_result):
    artifacts = _train(scale)
    trace = artifacts.trace

    def process(precompute: bool) -> float:
        builder = MarkovModelBuilder(
            artifacts.benchmark.catalog, precompute_tables=precompute
        )
        started = time.perf_counter()
        builder.build(trace)
        return time.perf_counter() - started

    with_tables = benchmark.pedantic(process, args=(True,), rounds=1, iterations=1)
    without_tables = process(False)
    save_result(
        "ablation_precompute_processing",
        "Processing phase cost (seconds)\n"
        f"  with pre-computed tables:    {with_tables:.3f}\n"
        f"  without pre-computed tables: {without_tables:.3f}",
    )
    # Building the tables costs extra during the (off-line) processing phase.
    assert with_tables >= without_tables * 0.5


def test_estimation_latency_benefits_from_tables(benchmark, scale, save_result):
    artifacts = _train(scale)
    requests = artifacts.benchmark.generator.generate(300)
    estimator = PathEstimator(
        artifacts.benchmark.catalog,
        GlobalModelProvider(artifacts.models),
        artifacts.mappings,
        HoudiniConfig(),
    )

    def estimate_all():
        for request in requests:
            estimator.estimate(request)

    benchmark.pedantic(estimate_all, rounds=1, iterations=1)
    per_txn_ms = 1000.0 * benchmark.stats.stats.mean / len(requests)
    save_result(
        "ablation_precompute_estimation",
        f"On-line estimation latency with pre-computed tables: {per_txn_ms:.3f} ms/txn "
        f"(paper reports 0.01-4.2 ms depending on the procedure)",
    )
    assert per_txn_ms < 50.0
