"""Two tenants, one cluster: the multi-tenant SLO subsystem end to end.

A ``TenantSource`` merges a steady "gold" tenant and a bursty "free"
tenant into one cluster session; a ``TenancyConfig`` turns the labels into
enforced policy.  The example walks the subsystem's levers in one run:

* **weighted fair queuing** — gold holds a 4:1 weight, so under pressure
  its transactions dispatch ahead of the backlog the free tier builds;
* **admission quotas** — gold is capped at 8 concurrently executing
  transactions plus a shared overflow pool of 2;
* **SLO tracking and shedding** — both tenants carry a latency SLO;
  arrivals predicted (from in-flight work plus the tenant's own queue) to
  land outside it are shed at the door;
* **live reconfiguration** — halfway through, gold's SLO is squeezed to a
  quarter via ``reconfigure(tenancy=...)`` without dropping the session;
* **determinism** — the whole story, reconfigure included, is replayed
  and asserted byte-identical.

Run with::

    python examples/multi_tenant.py

Set ``REPRO_TENANT_QUICK=1`` for a smaller run (CI smoke).
"""

import json
import os

from repro.session import Cluster, ClusterSpec, train
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import OpenLoopSource, TenantSource

QUICK = bool(os.environ.get("REPRO_TENANT_QUICK"))
PARTITIONS = 4
TRACE_TXNS = 600 if QUICK else 1000
RUN_TXNS = 400 if QUICK else 1200


def tenancy_config(gold_slo_ms: float) -> TenancyConfig:
    return TenancyConfig(
        tenants={
            "gold": TenantPolicy(weight=4.0, quota=8, slo_latency_ms=gold_slo_ms),
            "free": TenantPolicy(weight=1.0, slo_latency_ms=400.0),
        },
        shared_quota=2,
        shed=True,
    )


def open_session(artifacts):
    spec = ClusterSpec(
        benchmark="smallbank", num_partitions=PARTITIONS, strategy="houdini",
        workload=TenantSource({
            "gold": OpenLoopSource(600.0, "poisson", seed=1),
            "free": OpenLoopSource(900.0, "bursty", seed=2, burst_size=32),
        }),
        tenancy=tenancy_config(gold_slo_ms=80.0),
    )
    return Cluster.open(spec, artifacts=artifacts)


def run_story() -> dict:
    """One full session: run, squeeze gold's SLO live, run on, close."""
    artifacts = train(ClusterSpec(
        benchmark="smallbank",
        num_partitions=PARTITIONS,
        trace_transactions=TRACE_TXNS,
        seed=9,
    ))
    session = open_session(artifacts)
    session.run_for(txns=RUN_TXNS)
    # Live squeeze: gold's latency target drops 80ms -> 20ms mid-run; the
    # shed predictor starts rejecting gold arrivals it can no longer place
    # inside the SLO, and the SLO counters restart for the new target.
    session.reconfigure(tenancy=tenancy_config(gold_slo_ms=20.0))
    session.run_for(txns=RUN_TXNS)
    return session.close().to_dict()


def report(data: dict) -> None:
    tenancy = data["tenancy"]
    for name in sorted(data["tenants"]):
        tenant = data["tenants"][name]
        derived = tenant["derived"]
        arrivals = tenancy["arrivals"].get(name, {})
        slo = tenancy["slo"].get(name)
        slo_text = (
            f"SLO p{slo['quantile'] * 100:g}<={slo['target_ms']:g}ms "
            f"compliance={slo['compliance']:.3f} "
            f"{'met' if slo['met'] else 'MISSED'}"
            if slo else "no SLO"
        )
        print(f"  {name:>5}: {derived['throughput_txn_per_sec']:7.1f} txn/s  "
              f"avg {derived['average_latency_ms']:7.3f}ms  "
              f"shed={arrivals.get('shed', 0)}/{arrivals.get('arrivals', 0)}  "
              f"{slo_text}")
    print(f"  fairness (virtual clocks): "
          f"{ {k: round(v, 1) for k, v in tenancy['fairness'].items()} }")


def main() -> None:
    first = run_story()
    print("weighted fair queuing + quotas + shedding, gold SLO squeezed "
          "80ms -> 20ms mid-run:")
    report(first)

    gold_shed = first["tenancy"]["arrivals"]["gold"]["shed"]
    print(f"\nthe squeeze made the shed predictor trim gold's own stream: "
          f"shed={gold_shed}")

    second = run_story()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True), (
        "same seed + same spec must replay byte-identically"
    )
    print("replayed byte-identically (reconfigure included)")


if __name__ == "__main__":
    main()
