"""Ablation — global-model growth with cluster size (paper §4.6 / §6.4).

The paper motivates model partitioning by noting that the global models'
size grows combinatorially with the number of partitions, which slows the
on-line estimation.  This benchmark measures global-model size and estimation
work at increasing cluster sizes and compares against the partitioned models.
"""

from repro.experiments.common import format_table
from repro.houdini import GlobalModelProvider, HoudiniConfig, PathEstimator
from repro.session import ClusterSpec, build_partitioned_provider, train


def test_model_size_growth_and_partitioning_benefit(benchmark, scale, save_result):
    def sweep():
        rows = []
        for partitions in scale.partition_counts:
            artifacts = train(ClusterSpec(
                benchmark="tpcc",
                num_partitions=partitions,
                trace_transactions=scale.trace_transactions,
                seed=scale.seed,
            ))
            global_provider = GlobalModelProvider(artifacts.models)
            partitioned = build_partitioned_provider(artifacts)
            estimator = PathEstimator(
                artifacts.benchmark.catalog, global_provider,
                artifacts.mappings, HoudiniConfig(),
            )
            work = 0
            requests = artifacts.benchmark.generator.generate(100)
            for request in requests:
                work += estimator.estimate(request).work_units
            rows.append({
                "partitions": partitions,
                "global_vertices": global_provider.total_vertices(),
                "partitioned_vertices": partitioned.total_vertices(),
                "avg_estimation_work_units": work / len(requests),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["# Partitions", "Global vertices", "Partitioned vertices", "Est. work/txn"],
        [[r["partitions"], r["global_vertices"], r["partitioned_vertices"],
          round(r["avg_estimation_work_units"], 1)] for r in rows],
    )
    save_result("ablation_model_size", "Model size vs cluster size (TPC-C)\n" + table)

    # The global models grow with the cluster.
    assert rows[-1]["global_vertices"] >= rows[0]["global_vertices"]
