"""The four benchmark workloads and why each exists.

All run 16 partitions under the ``houdini`` strategy with global models.
The database, the training trace and the models are the system's
configuration and always come from ``TRAIN_SEED``; the run's ``seed`` makes
the *inputs* — the arrival processes (``seed + 1`` / ``seed + 2``) and the
request stream — so two seeds offer different traffic to the same cluster
and simulated metrics vary with the traffic only.

A workload is driven in fixed segments — ``run_for(txns=N)`` for the closed
loops (the pass-through ``_run_fast`` path), ``run_for(sim_seconds=S)`` for
the arrival sources (never ``txns=`` there: that drains every batch and
destroys the backlog) — and ``segments_per_second`` converts the runner's
``--seconds`` into a segment count, so the simulated work, and with it
every simulated metric, is a pure function of ``(seed, seconds)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.scheduling.admission import AdmissionLimits
from repro.session import ClusterSpec
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import OpenLoopSource, TenantSource
from repro.workload.sources import CompileContext

PARTITIONS = 16
TRACE_TRANSACTIONS = 1500
TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: what the workload stresses and what it bypasses.
    why: str
    #: ``"txns"`` or ``"sim_seconds"``: the ``run_for`` argument of a segment.
    drive: str
    per_segment: float
    #: Segments that take one second at reference host speed.
    segments_per_second: float
    #: Completions slower than this (simulated ms, from due time) miss.
    latency_limit_ms: float
    make_spec: Callable[[int], ClusterSpec]

    def segments(self, seconds: float) -> int:
        return max(1, round(seconds * self.segments_per_second))

    def segment_kwargs(self) -> dict:
        if self.drive == "txns":
            return {"txns": int(self.per_segment)}
        return {"sim_seconds": self.per_segment}

    @property
    def open_loop(self) -> bool:
        return self.drive == "sim_seconds"

    def seed_requests(self, session, seed: int) -> None:
        """Point a closed loop's clients at a request stream made from ``seed``.

        Arrival sources carry their seeds in the spec; the closed loop would
        otherwise continue the training generator's stream.
        """
        if not self.open_loop:
            context = CompileContext(session.artifacts.benchmark, TRAIN_SEED)
            session.reconfigure(generator=context.make_generator(seed))


def _spec(benchmark: str, **fields) -> ClusterSpec:
    fields.setdefault("trace_transactions", TRACE_TRANSACTIONS)
    return ClusterSpec(
        benchmark=benchmark,
        num_partitions=PARTITIONS,
        strategy="houdini",
        model_provider="global",
        seed=TRAIN_SEED,
        execution_backend="inline",
        **fields,
    )


def _tatp_closed(seed: int) -> ClusterSpec:
    # The longest run (100k completions) is the one that keeps sketches:
    # their P2 percentiles are steady on this smooth latency distribution.
    return _spec("tatp", learning=False, clients_per_partition=4,
                 metrics_mode="streaming")


def _tpcc_closed_learn(seed: int) -> ClusterSpec:
    # A 4000-transaction trace: models trained on 1500 mispredict enough
    # NewOrders (each restarts as a lock-everything distributed txn) that
    # simulated throughput swings 13% between request streams.
    return _spec("tpcc", learning=True, clients_per_partition=4,
                 trace_transactions=4000)


def _tatp_tenants_overload(seed: int) -> ClusterSpec:
    # Gold trickles in; free arrives in 512-request bursts at 4x its rate,
    # so every burst offers about twice what the gated cluster serves and
    # backs a few hundred requests up in the weighted queues, which then
    # drain before the next burst.  The SLOs are loose enough that the shed
    # predictor runs on every arrival and never fires: no operation fails.
    return _spec(
        "tatp", learning=False,
        workload=TenantSource({
            "gold": OpenLoopSource(150.0, "poisson", seed=seed + 1),
            "free": OpenLoopSource(400.0, "bursty", seed=seed + 2, burst_size=512),
        }),
        tenancy=TenancyConfig(
            tenants={
                "gold": TenantPolicy(weight=4.0, slo_latency_ms=250.0),
                "free": TenantPolicy(weight=1.0, slo_latency_ms=3000.0),
            },
            shed=True,
        ),
    )


def _smallbank_open_gated(seed: int) -> ClusterSpec:
    # Exact metrics: on this bursty tail the sketch's P2 p99 reads anywhere
    # from 34 to 67 ms across request streams whose exact p99 is 36-39 ms.
    return _spec(
        "smallbank", learning=False,
        workload=OpenLoopSource(650.0, "bursty", seed=seed + 1, burst_size=8),
        policy="shortest-predicted",
        admission=AdmissionLimits(max_distributed_in_flight=2, max_deferrals=1024),
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tatp_closed",
            why="1-3 statement txns on the FCFS fast path with sketch metrics: per-txn "
                "fixed cost (event loop, request generation, cache-probe planning, cost "
                "replay) peaks; scheduling and tenancy are bypassed",
            drive="txns", per_segment=500, segments_per_second=20.0,
            latency_limit_ms=125.0, make_spec=_tatp_closed,
        ),
        Workload(
            name="tpcc_closed_learn",
            why="~26 statement txns with learning on: engine, storage and stepwise "
                "Markov walks dominate while model maintenance writes the models "
                "the planner reads; per-txn overhead is diluted",
            drive="txns", per_segment=40, segments_per_second=21.0,
            latency_limit_ms=150.0, make_spec=_tpcc_closed_learn,
        ),
        Workload(
            name="tatp_tenants_overload",
            why="two tenants, free tier in 512-request bursts at 2x capacity: WFQ and "
                "shed prediction over a long queue, so scheduling and tenancy "
                "dominate the same execution path tatp_closed runs",
            drive="sim_seconds", per_segment=0.2, segments_per_second=25.0,
            latency_limit_ms=550.0, make_spec=_tatp_tenants_overload,
        ),
        Workload(
            name="smallbank_open_gated",
            why="bursty open loop at 0.85 of capacity: preview estimates, "
                "predicted-cost ordering, admission deferral and exact metrics on a "
                "short queue; the general loop unsaturated",
            drive="sim_seconds", per_segment=0.35, segments_per_second=25.0,
            latency_limit_ms=40.0, make_spec=_smallbank_open_gated,
        ),
    )
}
