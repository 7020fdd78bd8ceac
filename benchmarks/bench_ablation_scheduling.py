"""Ablation — prediction-driven queue scheduling (paper §8, future work).

The paper suggests annotating the Markov models with expected remaining run
time and using it for intelligent scheduling.  This benchmark serves an
identical backlog of mixed TPC-C requests through a single partition queue
under three disciplines — FIFO, predicted-shortest-job-first, and
single-partition-first — and reports the mean and tail completion time.

The expected shape: predicted-SJF reduces mean latency versus FIFO (short
OrderStatus/StockLevel lookups no longer wait behind long NewOrder and
Delivery transactions) while the worst-case completion time stays the same
(the last transaction finishes when all the work is done, regardless of
order).
"""

from repro.scheduling import (
    ArrivalOrderPolicy,
    ShortestPredictedFirstPolicy,
    SinglePartitionFirstPolicy,
    TransactionScheduler,
)
from repro.session import ClusterSpec, build_houdini, train


def _serve(backlog, policy) -> tuple[float, float]:
    scheduler = TransactionScheduler(policy)
    for request, estimate in backlog:
        scheduler.submit(request, estimate)
    clock = 0.0
    completions = []
    for pending in scheduler.drain():
        clock += max(pending.predicted_cost_ms, 0.05)
        completions.append(clock)
    return sum(completions) / len(completions), max(completions)


def test_predicted_sjf_beats_fifo_on_mean_latency(benchmark, scale, save_result):
    artifacts = train(ClusterSpec(
        benchmark="tpcc",
        num_partitions=4,
        trace_transactions=scale.trace_transactions,
        seed=scale.seed,
    ))
    houdini = build_houdini(artifacts, learning=False)
    generator = artifacts.benchmark.generator
    backlog = []
    for _ in range(max(200, scale.simulated_transactions // 2)):
        request = generator.next_request()
        backlog.append((request, houdini.estimate(request)))

    def run_all():
        return {
            policy.name: _serve(backlog, policy)
            for policy in (
                ArrivalOrderPolicy(),
                ShortestPredictedFirstPolicy(),
                SinglePartitionFirstPolicy(),
            )
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = ["Queue scheduling ablation (TPC-C backlog on one partition queue)"]
    lines.append(f"  {'policy':26s} {'mean (ms)':>12s} {'worst (ms)':>12s}")
    for name, (mean, worst) in results.items():
        lines.append(f"  {name:26s} {mean:12.2f} {worst:12.2f}")
    fifo_mean, fifo_worst = results["fcfs"]
    sjf_mean, sjf_worst = results["shortest-predicted"]
    lines.append(
        f"  predicted-SJF mean-latency reduction vs FIFO: "
        f"{100.0 * (1 - sjf_mean / fifo_mean):.1f}%"
    )
    save_result("ablation_scheduling", "\n".join(lines))
    assert sjf_mean < fifo_mean
    # Total work is identical, so the makespan must agree (float tolerance).
    assert abs(sjf_worst - fifo_worst) < 1e-6
