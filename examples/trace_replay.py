"""The record → train → replay loop (paper §3.1) as a five-step script.

The paper trains Houdini's models from a sample workload trace recorded on
the running system and then deploys them against live traffic.  With
workload sources that loop closes inside one script:

1. record a timestamped TATP trace by really executing requests against a
   populated database (arrival times stamped from a Poisson process);
2. train the Markov models and parameter mappings from that same trace;
3. replay the trace through a ``TraceReplaySource`` session — the "live"
   traffic is exactly the production traffic that trained the models;
4. pause mid-replay and inspect the in-flight transactions a metrics
   snapshot cannot see;
5. replay again at 2x speed (``speedup=2.0``) — the what-if-load-doubles
   experiment — and compare.

Run with::

    python examples/trace_replay.py
"""

from repro.session import Cluster, ClusterSpec, train
from repro.workload import TraceRecorder, TraceReplaySource, arrival_times

PARTITIONS = 4
TRACE_TXNS = 400
RATE_PER_SEC = 600.0
TRAINING = ClusterSpec(
    benchmark="tatp", num_partitions=PARTITIONS, trace_transactions=800, seed=42
)


def main() -> None:
    # 1. Record a timestamped production trace.
    artifacts = train(TRAINING)
    instance = artifacts.benchmark
    recorder = TraceRecorder(
        instance.catalog,
        instance.database,
        base_partition_chooser=instance.generator.home_partition,
    )
    trace = recorder.record(
        instance.generator.generate(TRACE_TXNS),
        arrival_times_ms=arrival_times("poisson", RATE_PER_SEC, TRACE_TXNS, seed=7),
    )
    span_s = trace[-1].at_ms / 1000.0
    print(f"recorded {len(trace)} transactions over {span_s:.2f}s "
          f"({RATE_PER_SEC:g} txn/s Poisson arrivals)")

    # 2./3. The models were trained from the same system; replay the trace
    # as live traffic against them.
    spec = ClusterSpec(
        benchmark="tatp", num_partitions=PARTITIONS, strategy="houdini",
        workload=TraceReplaySource(trace),
    )
    session = Cluster.open(spec, artifacts=artifacts)

    # 4. Pause mid-replay: the clock stops inside the trace and unfinished
    # work is visible through in_flight().
    midpoint = session.run_for(sim_seconds=span_s / 2.0)
    in_flight = session.in_flight()
    print(f"paused at t={session.now_ms:.0f}ms: "
          f"{midpoint.total_transactions} transactions done, "
          f"{len(in_flight)} in flight")
    for entry in in_flight[:3]:
        print(f"  [{entry.state}] {entry.procedure} txn={entry.txn_id} "
              f"partitions={list(entry.partitions)} "
              f"remaining={entry.predicted_remaining_ms:.3f}ms")
    first = session.run_for(txns=TRACE_TXNS)  # finish the replay
    session.close()
    print(f"full replay: {first.total_transactions} txns, "
          f"{first.throughput_txn_per_sec:.1f} txn/s, "
          f"avg latency {first.average_latency_ms:.3f}ms")

    # 5. What if the same traffic arrived twice as fast?
    doubled = Cluster.open(
        ClusterSpec(benchmark="tatp", num_partitions=PARTITIONS, strategy="houdini",
                    workload=TraceReplaySource(trace, speedup=2.0)),
        artifacts=train(TRAINING),
    )
    doubled.run_for(txns=TRACE_TXNS)
    second = doubled.close()
    print(f"2x-speed replay: {second.throughput_txn_per_sec:.1f} txn/s, "
          f"avg latency {second.average_latency_ms:.3f}ms "
          f"(queueing delay {'rose' if second.average_latency_ms > first.average_latency_ms else 'held'})")


if __name__ == "__main__":
    main()
