"""Simulator-throughput tracking (BENCH_simulator.json).

Measures end-to-end simulated transactions per wall second through the
event-driven runtime — closed-loop clients, scheduler routing, functional
execution through the coordinator, cost-model replay, metric finalization —
under the default FCFS configuration.

Runs go through the public session API (``Cluster.open`` →
``ClusterSession.run_for``), so the measured path is exactly what clients
of the redesigned surface pay; the timed region excludes training and
session assembly.

Protocol:

* TATP and TPC-C at 16 partitions (the paper's fixed-size cluster), four
  clients per partition;
* Houdini strategy with global models (``learning=False`` so repeated
  rounds are comparable), default :class:`HoudiniConfig` / ``CostModel``;
* 2000 transactions per run, best of three rounds with fresh artifacts,
  CPU time (GC paused).

Absolute wall rates are not commensurable across machines or even across
sessions on one machine, so every ratio this module records is taken
between two sides run interleaved in one session.

Scale mode adds three more tracked sections:

* ``arrival_generation`` — the 1M-arrival micro-benchmark: the vectorized
  kernel against the scalar one-gap-at-a-time reference stream
  (``tests/workload/reference.py``), interleaved in the same session (the
  acceptance floor is 5x with ``REPRO_BENCH_STRICT=1``, 2x otherwise);
* ``chunked_consumption`` — batched ``CompiledSource.take_until`` against
  the per-element peek/pop loop it replaced;
* ``scale_mode`` — the >= 1,000,000-user overload knee study under
  ``metrics_mode="streaming"`` (bounded memory asserted), plus the exact-
  vs-streaming metrics-footprint comparison on one overload probe.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

from repro.session import Cluster, ClusterSpec
from repro.workload import ClientCohortSource, Cohort, arrival_times
from tests.workload.reference import scalar_arrival_times

PARTITIONS = 16
TRANSACTIONS = 2000
ROUNDS = 3

#: The 1M-arrival micro-benchmark (vectorized vs scalar generation).
ARRIVALS = 1_000_000
ARRIVAL_RATE = 1000.0

#: ``learning_overhead.on_over_off`` on the commit before learning stopped
#: invalidating the planner's successor arrays (same protocol, same host).
LEARNING_ON_OVER_OFF_BEFORE = 0.497

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"

#: The closed-loop protocol shared by the throughput and overhead sections.
CLOSED_LOOP_PROTOCOL = (
    "at 16 partitions, 4 clients/partition (closed loop), Houdini strategy "
    "(global models, learning=False), default HoudiniConfig/CostModel, 2000 "
    "transactions/run, fresh artifacts per round (trace 1500, seed 0), CPU "
    "time with GC paused, best of 3 rounds."
)


def _merge_sections(**sections) -> dict:
    """Read-modify-write BENCH_simulator.json so every test contributes its
    section regardless of which subset of this module runs."""
    report = {}
    if BENCH_PATH.exists():
        report = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    report.update(sections)
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def _best_of(rounds: int, run) -> float:
    """Best wall rate (units/sec) over ``rounds`` calls of ``run() -> rate``."""
    best = 0.0
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            best = max(best, run())
        finally:
            gc.enable()
    return best


def _measure(benchmark_name: str, scale) -> dict:
    """Best-of-``ROUNDS`` wall throughput of one simulator configuration."""
    best = 0.0
    simulated = 0.0
    for _ in range(ROUNDS):
        session = Cluster.open(ClusterSpec(
            benchmark=benchmark_name,
            num_partitions=PARTITIONS,
            trace_transactions=min(scale.trace_transactions, 1500),
            learning=False,
        ))
        gc.collect()
        gc.disable()
        started = time.process_time()
        result = session.run_for(txns=TRANSACTIONS)
        elapsed = time.process_time() - started
        gc.enable()
        session.close()
        report = result.to_dict()
        assert report["committed"] + report["user_aborted"] == TRANSACTIONS
        throughput = TRANSACTIONS / elapsed
        if throughput > best:
            best = throughput
            simulated = report["derived"]["throughput_txn_per_sec"]
    return {
        "wall_txns_per_sec": round(best, 1),
        "simulated_throughput_txn_s": round(simulated, 1),
    }


def test_simulator_throughput_tracking(scale, save_result):
    """Emit BENCH_simulator.json: the perf trajectory of the event runtime."""
    report = {"protocol": "TATP and TPC-C " + CLOSED_LOOP_PROTOCOL}
    for name in ("tatp", "tpcc"):
        report[name] = _measure(name, scale)
    report = _merge_sections(**report)
    save_result(
        "simulator_throughput",
        f"Simulator throughput (wall txns/s, {PARTITIONS} partitions, houdini strategy)\n"
        + "\n".join(
            f"  {name}: {report[name]['wall_txns_per_sec']:.0f} txns/s "
            f"(simulated {report[name]['simulated_throughput_txn_s']:.0f} txn/s)"
            for name in ("tatp", "tpcc")
        ),
    )


# ----------------------------------------------------------------------
# Scale mode: vectorized arrivals, chunked consumption, 1M-user overload
# ----------------------------------------------------------------------
def test_arrival_generation_micro(save_result):
    """1M-arrival micro-benchmark: vectorized kernel vs the pure-Python
    reference stream (``tests/workload/reference.py``).

    Interleaved in the same session (scalar round, vectorized round, three
    times) so machine-state drift cancels.
    """
    scalar_best = vector_best = 0.0
    for _ in range(ROUNDS):
        for vectorized in (False, True):
            gc.collect()
            gc.disable()
            started = time.process_time()
            generate = arrival_times if vectorized else scalar_arrival_times
            times = generate("poisson", ARRIVAL_RATE, ARRIVALS, seed=0)
            elapsed = time.process_time() - started
            gc.enable()
            assert len(times) == ARRIVALS
            rate = ARRIVALS / elapsed
            if vectorized:
                vector_best = max(vector_best, rate)
            else:
                scalar_best = max(scalar_best, rate)
    speedup = vector_best / scalar_best
    section = {
        "protocol": f"{ARRIVALS:,} poisson arrivals at {ARRIVAL_RATE:g} txn/s, "
        "seed 0, interleaved scalar/vectorized rounds, best of "
        f"{ROUNDS} per side, CPU time with GC paused",
        "scalar_arrivals_per_sec": round(scalar_best, 1),
        "vectorized_arrivals_per_sec": round(vector_best, 1),
        "speedup_vectorized_vs_scalar": round(speedup, 2),
    }
    _merge_sections(arrival_generation=section)
    # The kernel must beat the scalar path everywhere numpy runs; the 5x
    # acceptance floor is opt-in.
    assert speedup >= 2.0
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= 5.0
    save_result(
        "arrival_generation",
        f"Arrival generation ({ARRIVALS:,} poisson arrivals)\n"
        f"  scalar:     {scalar_best:,.0f} arrivals/s\n"
        f"  vectorized: {vector_best:,.0f} arrivals/s ({speedup:.1f}x)",
    )


def test_chunked_take_until_micro(save_result):
    """Batched ``take_until`` vs the per-element peek/pop loop it replaced."""
    from repro.types import ProcedureRequest
    from repro.workload.sources import Arrival, CompiledSource

    count = 400_000
    times = arrival_times("poisson", ARRIVAL_RATE, count, seed=1)
    arrivals = [
        Arrival(at, ProcedureRequest("proc", (i,)), None)
        for i, at in enumerate(times)
    ]
    step_ms = 250.0

    def chunks():
        return (arrivals[i:i + 512] for i in range(0, count, 512))

    def batched() -> float:
        source = CompiledSource(chunks=chunks())
        deadline, got = step_ms, 0
        started = time.process_time()
        while got < count:
            got += len(source.take_until(deadline))
            deadline += step_ms
        return count / (time.process_time() - started)

    def scalar() -> float:
        source = CompiledSource(chunks=chunks())
        deadline, got = step_ms, 0
        started = time.process_time()
        while got < count:
            while (nxt := source.peek()) is not None and nxt.at_ms <= deadline:
                source.pop()
                got += 1
            deadline += step_ms
        return count / (time.process_time() - started)

    scalar_best = _best_of(ROUNDS, scalar)
    batched_best = _best_of(ROUNDS, batched)
    speedup = batched_best / scalar_best
    _merge_sections(chunked_consumption={
        "protocol": f"{count:,} arrivals drained in {step_ms:g}ms take_until "
        f"windows, 512-arrival chunks, best of {ROUNDS} interleavable rounds",
        "peek_pop_arrivals_per_sec": round(scalar_best, 1),
        "take_until_arrivals_per_sec": round(batched_best, 1),
        "speedup_batched_vs_peek_pop": round(speedup, 2),
    })
    assert speedup >= 1.0, "batched consumption must never lose to peek/pop"
    save_result(
        "chunked_consumption",
        f"CompiledSource.take_until ({count:,} arrivals, {step_ms:g}ms windows)\n"
        f"  peek/pop loop: {scalar_best:,.0f} arrivals/s\n"
        f"  take_until:    {batched_best:,.0f} arrivals/s ({speedup:.1f}x)",
    )


def _metrics_footprint(result) -> int:
    """Approximate bytes held by the latency accumulator of a result."""
    if result.latency_sketch is not None:
        sketch = result.latency_sketch
        return sys.getsizeof(sketch._buckets) + 56 * len(sketch._buckets) + 400
    return sys.getsizeof(result.latencies_ms) + 24 * len(result.latencies_ms)


def test_scale_mode_overload(scale, save_result):
    """The >= 1,000,000-user overload study: bounded memory, located knee.

    Runs the knee finder (``repro knee``) with a million-user cohort under
    streaming metrics, then one exact-vs-streaming probe pair at a fixed
    offered rate to quantify the metrics-memory difference the sketch buys.
    """
    from repro.experiments.overload_knee import run_overload_knee

    users = 1_000_000
    result = run_overload_knee(scale, "tatp", users=users, probe_seconds=1.0)
    assert result.users >= 1_000_000
    assert result.knee_rate > 0
    # Bounded memory: the entire search (training + ~10 probes) must fit in
    # a small fraction of what a per-user or per-latency representation
    # would take.  4 GiB is far above observed (~100 MiB) but catches
    # accidental O(users) or O(arrivals) state.
    assert result.peak_rss_mib < 4096

    # Metrics footprint: one overload probe per mode at the same offered
    # rate over the same window (fresh deterministic training per side).
    window_s, per_user = 20.0, 0.002
    footprints = {}
    for mode in ("exact", "streaming"):
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=4, trace_transactions=600, seed=0,
            metrics_mode=mode,
            workload=ClientCohortSource(
                [Cohort("clients", users, rate_per_user_per_sec=per_user)],
                label_tenants=False,
            ),
        )
        session = Cluster.open(spec)
        probe = session.run_for(sim_seconds=window_s)
        footprints[mode] = {
            "completions": probe.committed + probe.user_aborted,
            "latency_bytes": _metrics_footprint(probe),
        }
    ratio = footprints["exact"]["latency_bytes"] / footprints["streaming"]["latency_bytes"]
    # The sketch is constant-size; the exact list grows with completions.
    assert footprints["streaming"]["latency_bytes"] < 128 * 1024
    _merge_sections(scale_mode={
        "protocol": f"knee finder on tatp with one {users:,}-user cohort, "
        "streaming metrics, 1.0s probes; footprint pair measured at "
        f"{per_user * users:g} txn/s offered over {window_s:g} simulated "
        "seconds",
        "users": users,
        "knee_rate_txn_s": round(result.knee_rate, 1),
        "p95_at_knee_ms": round(result.p95_at_knee_ms, 3),
        "probes": len(result.probes),
        "peak_rss_mib": round(result.peak_rss_mib, 1),
        "metrics_footprint": {
            **footprints,
            "exact_over_streaming": round(ratio, 1),
        },
    })
    save_result(
        "scale_mode",
        f"Scale mode ({users:,} simulated users)\n"
        f"  knee: {result.knee_rate:.0f} txn/s "
        f"(p95 {result.p95_at_knee_ms:.1f} ms, {len(result.probes)} probes, "
        f"peak RSS {result.peak_rss_mib:.0f} MiB)\n"
        f"  metrics footprint: exact {footprints['exact']['latency_bytes']:,} B "
        f"vs streaming {footprints['streaming']['latency_bytes']:,} B "
        f"({ratio:.0f}x)",
    )


# ----------------------------------------------------------------------
# Multi-tenant SLO subsystem: the cost of having it, off and on
# ----------------------------------------------------------------------
def _closed_round(benchmark: str, *, tenancy=None, learning: bool = False) -> float:
    """One closed-loop round under :data:`CLOSED_LOOP_PROTOCOL`."""
    session = Cluster.open(ClusterSpec(
        benchmark=benchmark,
        num_partitions=PARTITIONS,
        trace_transactions=1500,
        learning=learning,
        tenancy=tenancy,
    ))
    started = time.process_time()
    result = session.run_for(txns=TRANSACTIONS)
    elapsed = time.process_time() - started
    session.close()
    assert result.committed + result.user_aborted == TRANSACTIONS
    return TRANSACTIONS / elapsed


def test_tenancy_overhead(save_result):
    """Track the tenancy subsystem's cost: the same loop, tenancy off and on.

    * ``tenancy_off`` — the default path (``tenancy=None``): every
      per-arrival hook is behind one ``self.tenancy is not None`` check and
      the scheduler stays the plain ``TransactionScheduler``.
    * ``tenancy_on`` — an *empty* ``TenancyConfig()`` on the identical
      closed loop, isolating the fixed machinery cost (TenantScheduler
      virtual clocks plus partition-gated dispatch) from any policy.  Gating
      is the dominant term: the loop leaves the pass-through fast path for
      the general event loop, every submission carries a preview estimate,
      and blocked transactions park on per-partition wait lists that only
      that partition's release looks at again.

    Off and on rounds alternate, so host drift hits both sides alike;
    ``on_over_off`` is the host-independent reading.  Reported, not asserted.
    """
    from repro.tenancy import TenancyConfig

    off = on = 0.0
    for _ in range(ROUNDS):
        off = max(off, _best_of(1, lambda: _closed_round("tatp")))
        on = max(on, _best_of(1, lambda: _closed_round("tatp", tenancy=TenancyConfig())))
    section = {
        "protocol": "TATP " + CLOSED_LOOP_PROTOCOL
        + " tenancy_on attaches an empty TenancyConfig() to the same loop; off "
        "and on rounds alternate.",
        "tenancy_off": {"wall_txns_per_sec": round(off, 1)},
        "tenancy_on": {"wall_txns_per_sec": round(on, 1)},
        "on_over_off": round(on / off, 3),
        "note": "The tenancy_on figure is the cost of partition-gated "
        "weighted-fair dispatch under a saturated closed loop, the gate's "
        "worst case.",
    }
    _merge_sections(tenancy_overhead=section)
    save_result(
        "tenancy_overhead",
        f"Tenancy overhead (TATP, {PARTITIONS} partitions, closed loop)\n"
        f"  off: {off:.0f} txns/s\n"
        f"  on (empty config): {on:.0f} txns/s ({on / off:.2f}x of off)",
    )


# ----------------------------------------------------------------------
# Run-time learning (§4.5): what keeping the models current costs
# ----------------------------------------------------------------------
def test_learning_overhead(save_result):
    """Track the learning tax: the same TPC-C closed loop, learning on vs off.

    With learning on, every attempt's transitions are logged once into the
    model the planner is reading, maintenance folds the log and checks drift
    every 200 transactions, and drifting models are recomputed
    incrementally, republishing only the views and tables that changed.  A
    logged visit to an existing edge leaves the planner's successor views
    alone (only a new edge or a recompute replaces them) and a memoized walk
    is evicted only when something it read was replaced, so what is left of
    the tax is the recomputes' table work, the per-statement runtime
    monitor, and the walks re-run after a recompute or a new edge on their
    own path.

    Off and on rounds alternate, so host drift hits both sides alike;
    ``on_over_off`` is the host-independent reading.  Reported, not asserted.
    """
    off = on = 0.0
    for _ in range(ROUNDS):
        off = max(off, _best_of(1, lambda: _closed_round("tpcc")))
        on = max(on, _best_of(1, lambda: _closed_round("tpcc", learning=True)))
    section = {
        "protocol": "TPC-C at 16 partitions, 4 clients/partition (closed loop), "
        "Houdini strategy (global models), default HoudiniConfig/CostModel, "
        "2000 transactions/run, fresh artifacts per round (trace 1500, seed "
        "0), CPU time with GC paused, best of 3 rounds; learning off and on "
        "rounds alternate.",
        "learning_off": {"wall_txns_per_sec": round(off, 1)},
        "learning_on": {"wall_txns_per_sec": round(on, 1)},
        "on_over_off": round(on / off, 3),
        "on_over_off_before": LEARNING_ON_OVER_OFF_BEFORE,
        "note": (
            "Measured on the commit that gave each model one transition log, in six "
            "runs alternating with its parent on one 2-core host: 0.712 / 0.772 / 0.676 / 0.790 / 0.775 / 0.757 "
            "against the parent's 0.737 / 0.664 / 0.660 / 0.644 / 0.718 / 0.636 (medians 0.76 vs 0.66; the recorded "
            "run is the last; the host ran at about half the speed of the earlier "
            "recordings). Learning now writes each attempt once (one log append, "
            "folded at the maintenance check) and a recompute republishes only the "
            "views and tables that changed. What is left of the tax: the recomputes' "
            "table work, the per-statement runtime monitor, and the walks re-run "
            "after a recompute or a new edge on their own path. on_over_off_before "
            "was measured with this protocol on the commit before count-only edge "
            "visits stopped dropping the successor arrays and probability tables "
            "became flat columns."
        ),
    }
    _merge_sections(learning_overhead=section)
    save_result(
        "learning_overhead",
        f"Learning overhead (TPC-C, {PARTITIONS} partitions, closed loop)\n"
        f"  off: {off:.0f} txns/s\n"
        f"  on: {on:.0f} txns/s ({on / off:.2f}x of off; "
        f"{LEARNING_ON_OVER_OFF_BEFORE:.2f}x before)",
    )
