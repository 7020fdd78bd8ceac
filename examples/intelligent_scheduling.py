"""Intelligent scheduling and admission control from path estimates (paper §8).

The paper's future-work section proposes using the Markov models' expected
remaining run time to schedule queued transactions intelligently.  With the
session API each scenario is a handful of lines: open a cluster, run it
under one queue discipline, swap the discipline *live* with
``session.reconfigure(policy=...)``, and compare the windowed metrics —
admission control is one more ``reconfigure(admission=...)`` away.

The example compares three disciplines on a mixed TPC-C workload (long
NewOrder/Delivery transactions interleaved with short OrderStatus/StockLevel
lookups):

* plain FCFS (what a work queue does today),
* predicted-shortest-job-first (the paper's suggestion), and
* single-partition-first (drain cheap local work before distributed work),

then demonstrates a live policy swap plus admission limits on one long-lived
session — no retraining, no cluster rebuild.

Run with::

    python examples/intelligent_scheduling.py
"""

from repro import pipeline
from repro.session import Cluster, ClusterSpec

SPEC = ClusterSpec(benchmark="tpcc", num_partitions=4, strategy="houdini",
                   trace_transactions=1200, seed=5)


def compare_policies(artifacts) -> None:
    print("== Queue discipline comparison (one session per policy, shared artifacts) ==")
    print(f"  {'policy':28s} {'throughput':>12s} {'mean latency':>14s} {'queue jumps':>11s}")
    for policy in (None, "shortest-predicted", "single-partition-first"):
        session = Cluster.open(SPEC, artifacts=artifacts)
        if policy is not None:
            session.reconfigure(policy=policy)
        result = session.run_for(txns=400)
        session.close()
        name = policy or "fcfs"
        print(f"  {name:28s} {result.throughput_txn_per_sec:8.1f} txn/s "
              f"{result.average_latency_ms:11.2f} ms "
              f"{result.scheduler_stats.reordered:11d}")
    print()


def live_reconfiguration(artifacts) -> None:
    print("== Live reconfiguration: swap policy and admission mid-run ==")
    session = Cluster.open(SPEC, artifacts=artifacts)

    def phase_latency(snapshot, previous):
        """Mean latency of only the transactions this phase contributed
        (snapshots are cumulative; slicing isolates the phase)."""
        offset = len(previous.latencies_ms) if previous else 0
        fresh = snapshot.latencies_ms[offset:]
        return sum(fresh) / len(fresh)

    session.run_for(txns=200)
    fcfs_phase = session.snapshot_metrics()
    print(f"  phase 1 (fcfs):       {phase_latency(fcfs_phase, None):7.2f} ms mean latency")

    # The queue policy changes while the cluster keeps running: the pending
    # heap is re-keyed, the stats stay continuous.
    session.reconfigure(policy="shortest-predicted")
    session.run_for(txns=200)
    sjf_phase = session.snapshot_metrics()
    print(f"  phase 2 (+sjf):       {phase_latency(sjf_phase, fcfs_phase):7.2f} ms mean latency, "
          f"{sjf_phase.scheduler_stats.reordered} queue jumps")

    # Cap concurrent distributed transactions on top of the new policy.
    session.reconfigure(admission={"max_distributed_in_flight": 1,
                                   "max_in_flight": 4, "max_deferrals": 256})
    session.run_for(txns=200)
    final = session.close()
    print(f"  phase 3 (+admission): {phase_latency(final, sjf_phase):7.2f} ms mean latency, "
          f"{final.admission_stats.deferred} deferrals, "
          f"{final.rejected} rejections")
    print()


def main() -> None:
    print("== Train TPC-C once; every scenario reuses the artifacts ==")
    artifacts = pipeline.train("tpcc", num_partitions=4, trace_transactions=1200, seed=5)
    backlog_estimate = pipeline.make_houdini(artifacts, learning=False)
    distributed = sum(
        1 for _ in range(300)
        if len(backlog_estimate.estimate(
            artifacts.benchmark.generator.next_request()).touched_partitions()) > 1
    )
    print(f"  sampled 300 requests: {distributed} predicted distributed")
    print()
    compare_policies(artifacts)
    live_reconfiguration(artifacts)


if __name__ == "__main__":
    main()
