"""Prefetch analysis and the reorganization advisor (paper §8).

Two more of the paper's future-work ideas, exercised end to end:

1. **Query prefetching / batching** — using the parameter mappings and the
   Markov models, find the queries whose parameters are already known when a
   request arrives (they could be dispatched immediately or batched into one
   round trip), per stored procedure and per benchmark.
2. **Automatic reorganization** — run a deliberately *badly partitioned*
   AuctionMark-style workload (lots of buyer/seller cross-partition traffic)
   through the simulator and let the :class:`~repro.advisor.WorkloadAdvisor`
   read the statistics and recommend what to do about it.

Run with::

    python examples/prefetch_and_advisor.py
"""

from repro.advisor import AdvisorThresholds, WorkloadAdvisor
from repro.houdini import PrefetchAdvisor
from repro.session import Cluster, ClusterSpec, train


def prefetch_report() -> None:
    print("== 1. Prefetchable / batchable queries per procedure ==")
    for benchmark in ("tatp", "tpcc"):
        artifacts = train(ClusterSpec(
            benchmark=benchmark, num_partitions=4, trace_transactions=800, seed=7
        ))
        advisor = PrefetchAdvisor(artifacts.benchmark.catalog, artifacts.mappings)
        plans = advisor.analyze_all(artifacts.models)
        print(f"  [{benchmark}]")
        for name, plan in plans.items():
            batches = f", {len(plan.batch_groups)} batchable group(s)" if plan.batch_groups else ""
            print(
                f"    {name:24s} {plan.coverage:4.0%} of the dominant path prefetchable"
                f" ({len(plan.prefetchable_at_begin)} dispatchable with the request{batches})"
            )
    print()


def advisor_report() -> None:
    print("== 2. Reorganization advisor on a distributed-heavy workload ==")
    spec = ClusterSpec(
        benchmark="auctionmark", num_partitions=8, trace_transactions=1000, seed=11
    )
    with Cluster.open(spec) as session:
        result = session.run_for(txns=800)
    print(
        f"  simulated {result.total_transactions} transactions: "
        f"{result.single_partition} single-partition, {result.distributed} distributed, "
        f"{result.restarts} restarts"
    )
    advisor = WorkloadAdvisor(AdvisorThresholds(distributed_fraction=0.15))
    report = advisor.analyze(session.strategy.stats, result)
    print("  advisor says:")
    for line in report.describe().splitlines():
        print(f"    {line}")
    print()

    print("== 3. The same advisor on a healthy TATP run ==")
    spec = ClusterSpec(benchmark="tatp", num_partitions=4, trace_transactions=800, seed=13)
    with Cluster.open(spec) as session:
        result = session.run_for(txns=600)
    report = WorkloadAdvisor().analyze(session.strategy.stats, result)
    print(f"  {report.describe()}")


def main() -> None:
    prefetch_report()
    advisor_report()


if __name__ == "__main__":
    main()
