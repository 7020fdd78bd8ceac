"""Prediction-aware scheduling in the event-driven runtime (paper §8).

The paper's future-work section proposes annotating queued transactions with
their predicted execution properties and scheduling them intelligently.
This experiment runs the simulator — the same event-driven runtime the
throughput figures use — under each registered queue policy, and once more
with admission control, on the SmallBank mix (whose 40% two-customer
transactions give the scheduler real multi-partition decisions to make).

Two traffic shapes are exercised:

* the paper's **closed loop** (think-time clients; offered load equals
  service rate, so queues stay shallow), and
* an **open-loop overload** (:class:`~repro.workload.sources.OpenLoopSource`
  arrivals at ~2x the closed-loop service rate), where queues actually grow
  and the policies differ — including in how badly they starve long
  transactions, which the per-class queue-wait metric
  (``scheduler_stats.queue_wait_by_class``) makes visible as the
  "max wait" column.

The "queue jumps" column is ``scheduler_stats.reordered``: dispatches that
started while an older arrival was still queued, whether ready or parked on
a busy partition.  Examinations that did not dispatch are not jumps.

The same 2x overload is then rerun as a **two-tenant** stream (a
premium tenant at 0.5x with a tight SLO plus a bulk tenant carrying the
remaining 1.5x with a loose one), once through the shared scheduler and
once under a :class:`~repro.tenancy.TenancyConfig` (4:1 weights,
predicted-work shedding).  The per-tenant table shows the mechanism the
tenancy subsystem adds: the shared scheduler lets the bulk tenant's queue
swallow the premium tenant (both p95s blow through the tight SLO), while
weighted fair queuing plus shedding keeps the premium tenant inside its
SLO without shedding any of its traffic — the bulk tenant sheds instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import pipeline
from ..scheduling import AdmissionLimits
from ..scheduling.policies import available_policies
from ..session import Cluster, ClusterSpec
from ..tenancy import TenancyConfig, TenantPolicy
from ..workload import OpenLoopSource, TenantSource
from .common import ExperimentScale, format_table, run_session


@dataclass
class SchedulingPoliciesResult:
    """Throughput and queue behaviour per scheduling configuration."""

    scale: ExperimentScale
    benchmark: str = "smallbank"
    #: configuration name -> summary metrics.
    rows: dict[str, dict] = field(default_factory=dict)
    #: "configuration/tenant" -> per-tenant SLO metrics of the two-tenant
    #: 2x-overload comparison (shared scheduler vs tenancy subsystem).
    tenant_rows: dict[str, dict] = field(default_factory=dict)

    def format(self) -> str:
        headers = [
            "configuration", "txn/s", "avg latency (ms)", "max wait (ms)",
            "queue jumps", "deferred", "rejected",
        ]
        table_rows = []
        for name, metrics in self.rows.items():
            table_rows.append([
                name,
                round(metrics["throughput"], 1),
                round(metrics["avg_latency_ms"], 3),
                round(metrics["max_queue_wait_ms"], 3),
                metrics["reordered"],
                metrics["deferred"],
                metrics["rejected"],
            ])
        text = (
            f"Scheduling policies under the event-driven runtime ({self.benchmark})\n"
            + format_table(headers, table_rows)
        )
        if self.tenant_rows:
            tenant_headers = [
                "configuration", "tenant", "txn/s", "p95 (ms)", "slo (ms)",
                "compliance", "met", "shed rate",
            ]
            tenant_table = []
            for name, metrics in self.tenant_rows.items():
                tenant_table.append([
                    name,
                    metrics["tenant"],
                    round(metrics["throughput"], 1),
                    round(metrics["p95_latency_ms"], 1),
                    round(metrics["slo_ms"], 1),
                    round(metrics["compliance"], 3),
                    "yes" if metrics["met"] else "NO",
                    round(metrics["shed_rate"], 3),
                ])
            text += (
                "\n\nTwo tenants at 2x overload: shared scheduler vs "
                "tenancy subsystem\n"
                + format_table(tenant_headers, tenant_table)
            )
        return text


def _p95(latencies_ms: list[float]) -> float:
    if not latencies_ms:
        return 0.0
    ordered = sorted(latencies_ms)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(0.95 * len(ordered)) - 1))]


def _tenant_slo_rows(simulation, label: str, slos: dict[str, float], out: dict) -> None:
    """Per-tenant SLO rows for one run; works with or without tenancy."""
    snapshot = simulation.tenancy or {}
    slo_snapshot = snapshot.get("slo", {})
    arrivals = snapshot.get("arrivals", {})
    for tenant in sorted(simulation.tenants):
        breakdown = simulation.tenants[tenant]
        slo_ms = slos[tenant]
        if tenant in slo_snapshot:
            entry = slo_snapshot[tenant]
            compliance, met = entry["compliance"], entry["met"]
        else:  # shared baseline: judge raw latencies against the same SLO
            latencies = breakdown.latencies_ms
            within = sum(1 for value in latencies if value <= slo_ms)
            compliance = within / len(latencies) if latencies else 1.0
            met = compliance >= 0.95
        out[f"{label}/{tenant}"] = {
            "tenant": tenant,
            "throughput": breakdown.throughput_txn_per_sec,
            "p95_latency_ms": _p95(breakdown.latencies_ms),
            "slo_ms": slo_ms,
            "compliance": compliance,
            "met": met,
            "shed_rate": arrivals.get(tenant, {}).get("shed_rate", 0.0),
        }


def _row(simulation) -> dict:
    return {
        "throughput": simulation.throughput_txn_per_sec,
        "avg_latency_ms": simulation.average_latency_ms,
        "max_queue_wait_ms": simulation.scheduler_stats.max_queue_wait_ms
        if simulation.scheduler_stats else 0.0,
        "reordered": simulation.scheduler_stats.reordered
        if simulation.scheduler_stats else 0,
        "deferred": simulation.admission_stats.deferred
        if simulation.admission_stats else 0,
        "rejected": simulation.rejected,
    }


def run_scheduling_policies(
    scale: ExperimentScale | None = None, benchmark: str = "smallbank"
) -> SchedulingPoliciesResult:
    """Run every queue policy (plus one admission configuration) once."""
    scale = scale or ExperimentScale.from_env()
    result = SchedulingPoliciesResult(scale=scale, benchmark=benchmark)
    configurations: list[tuple[str, str | None, AdmissionLimits | None]] = [
        (name, name, None) for name in available_policies()
    ]
    configurations.append(
        (
            "fcfs+admission",
            None,
            AdmissionLimits(max_in_flight=2 * scale.accuracy_partitions, max_deferrals=256),
        )
    )
    closed_rate = None
    for label, policy, limits in configurations:
        artifacts = pipeline.train(
            benchmark,
            scale.accuracy_partitions,
            trace_transactions=scale.trace_transactions,
            seed=scale.seed,
        )
        strategy = pipeline.make_strategy("houdini", artifacts)
        simulation = run_session(
            artifacts,
            strategy,
            transactions=scale.simulated_transactions,
            policy=policy,
            admission_limits=limits,
        )
        result.rows[label] = _row(simulation)
        if closed_rate is None:
            closed_rate = max(1.0, simulation.throughput_txn_per_sec)
    # Open-loop overload: arrivals at ~2x the closed-loop service rate, so
    # the queue actually grows and policy choice (and starvation) matters.
    for label, policy, limits in configurations:
        artifacts = pipeline.train(
            benchmark,
            scale.accuracy_partitions,
            trace_transactions=scale.trace_transactions,
            seed=scale.seed,
        )
        strategy = pipeline.make_strategy("houdini", artifacts)
        spec = ClusterSpec(
            benchmark=benchmark,
            num_partitions=scale.accuracy_partitions,
            policy=policy,
            admission=limits,
            workload=OpenLoopSource(2.0 * closed_rate, "poisson", seed=scale.seed),
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        session.run_for(txns=scale.simulated_transactions)
        result.rows[f"open-loop 2x {label}"] = _row(session.close())
    # Two tenants sharing the same 2x overload: "gold" offers 0.5x with a
    # tight SLO, "free" the remaining 1.5x with a loose one.  Once through
    # the shared FCFS scheduler, once under the tenancy subsystem (4:1
    # weights, predicted-work shedding).  SLOs are set relative to the
    # measured closed-loop latency so the comparison is scale-independent:
    # tight enough that the shared queue blows through them, loose enough
    # that an isolated gold stream sits comfortably inside.
    base_latency = max(
        1.0, result.rows[next(iter(result.rows))]["avg_latency_ms"]
    )
    slos = {"gold": 3.0 * base_latency, "free": 5.0 * base_latency}
    tenancy = TenancyConfig(
        tenants={
            "gold": TenantPolicy(weight=4.0, slo_latency_ms=slos["gold"]),
            "free": TenantPolicy(weight=1.0, slo_latency_ms=slos["free"]),
        },
        shed=True,
    )
    for label, config in (("2x shared", None), ("2x tenancy", tenancy)):
        artifacts = pipeline.train(
            benchmark,
            scale.accuracy_partitions,
            trace_transactions=scale.trace_transactions,
            seed=scale.seed,
        )
        strategy = pipeline.make_strategy("houdini", artifacts)
        spec = ClusterSpec(
            benchmark=benchmark,
            num_partitions=scale.accuracy_partitions,
            workload=TenantSource({
                "gold": OpenLoopSource(0.5 * closed_rate, "poisson", seed=scale.seed),
                "free": OpenLoopSource(1.5 * closed_rate, "poisson", seed=scale.seed),
            }),
            tenancy=config,
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        session.run_for(txns=scale.simulated_transactions)
        _tenant_slo_rows(session.close(), label, slos, result.tenant_rows)
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_scheduling_policies().format())


if __name__ == "__main__":  # pragma: no cover
    main()
