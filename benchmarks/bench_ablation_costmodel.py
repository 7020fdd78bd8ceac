"""Ablation — sensitivity of the throughput results to the cost model.

The simulator replaces the paper's physical cluster with a calibrated cost
model; this benchmark sweeps its two most influential constants (remote-query
cost and the two-phase-commit round cost) and checks that the paper's
qualitative ordering — oracle above the redirect baseline — holds across the
sweep, i.e. that the reproduction's conclusions are not an artifact of one
particular constant choice.
"""

from repro.experiments.common import format_table
from repro.session import Cluster, ClusterSpec
from repro.sim import CostModel


def test_costmodel_sensitivity(benchmark, scale, save_result):
    partitions = scale.accuracy_partitions
    variants = {
        "default": CostModel(),
        "slow-network": CostModel(query_remote_ms=2.0, two_phase_prepare_ms=3.0,
                                  two_phase_commit_ms=2.0),
        "fast-network": CostModel(query_remote_ms=0.3, two_phase_prepare_ms=0.4,
                                  two_phase_commit_ms=0.3),
    }

    def sweep():
        rows = []
        for label, cost_model in variants.items():
            throughput = {}
            for mode in ("oracle", "assume-single-partition"):
                spec = ClusterSpec(
                    benchmark="tpcc",
                    num_partitions=partitions,
                    trace_transactions=min(scale.trace_transactions, 1200),
                    seed=scale.seed,
                    strategy=mode,
                    cost_model=cost_model,
                )
                with Cluster.open(spec) as session:
                    result = session.run_for(txns=min(scale.simulated_transactions, 600))
                throughput[mode] = result.throughput_txn_per_sec
            rows.append((label, throughput))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["Cost model", "Proper selection (txn/s)", "Assume single-partition (txn/s)"],
        [[label, round(t["oracle"], 1), round(t["assume-single-partition"], 1)]
         for label, t in rows],
    )
    save_result("ablation_costmodel", "Cost-model sensitivity (TPC-C)\n" + table)

    for label, throughput in rows:
        assert throughput["oracle"] > throughput["assume-single-partition"], label
