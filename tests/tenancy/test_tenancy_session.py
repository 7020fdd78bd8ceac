"""Session-level acceptance tests of the multi-tenant SLO subsystem.

The contracts:

* same seed + same spec with tenancy enabled -> byte-identical
  ``SimulationResult.to_dict()`` (reconfigure mid-run included);
* per-tenant quotas cap concurrency without admission-stat underflow, and
  survive a mid-run quota reconfigure (slots admitted under the old config
  release cleanly);
* weighted fair queuing protects the high-weight tenant's SLO at 2x
  overload where the shared scheduler misses it, and shedding trims only
  SLO-bearing tenants;
* ``reconfigure(tenancy=...)`` attaches, swaps and detaches the subsystem
  live, adopting the queue back and forth without losing transactions.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import SessionError
from repro.session import Cluster, ClusterSpec, build_strategy
from repro.tenancy import TenancyConfig, TenantPolicy, TenantScheduler
from repro.workload import OpenLoopSource, TenantSource
from tests.conftest import trained

PARTITIONS = 4


def fresh_pipeline(benchmark: str = "tatp"):
    """Pristine artifacts + strategy (learning mutates models in place)."""
    artifacts = trained(benchmark, PARTITIONS, 600, 11)
    return artifacts, build_strategy("houdini", artifacts)


def two_tenant_workload(rate_gold: float = 400.0, rate_free: float = 800.0):
    return TenantSource({
        "gold": OpenLoopSource(rate_gold, "poisson", seed=11),
        "free": OpenLoopSource(rate_free, "bursty", seed=11),
    })


def standard_tenancy(**overrides) -> TenancyConfig:
    kwargs = dict(
        tenants={
            "gold": TenantPolicy(weight=3.0, quota=8, slo_latency_ms=40.0),
            "free": TenantPolicy(weight=1.0, slo_latency_ms=200.0),
        },
        shared_quota=2,
        shed=True,
    )
    kwargs.update(overrides)
    return TenancyConfig(**kwargs)


def run_bytes(*, squeeze: bool = False) -> str:
    artifacts, strategy = fresh_pipeline()
    spec = ClusterSpec(
        benchmark="tatp", num_partitions=PARTITIONS,
        workload=two_tenant_workload(),
        tenancy=standard_tenancy(),
    )
    session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
    session.run_for(txns=300)
    if squeeze:
        session.reconfigure(tenancy=standard_tenancy(tenants={
            "gold": TenantPolicy(weight=3.0, quota=4, slo_latency_ms=20.0),
            "free": TenantPolicy(weight=1.0, slo_latency_ms=200.0),
        }))
    session.run_for(txns=300)
    return json.dumps(session.close().to_dict(), sort_keys=True)


class TestByteDeterminism:
    def test_same_seed_same_bytes(self):
        assert run_bytes() == run_bytes()

    def test_same_seed_same_bytes_across_a_reconfigure(self):
        assert run_bytes(squeeze=True) == run_bytes(squeeze=True)


class TestQuotas:
    def test_quota_caps_concurrency(self):
        artifacts, strategy = fresh_pipeline()
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=PARTITIONS,
            workload=two_tenant_workload(),
            tenancy=standard_tenancy(tenants={
                "gold": TenantPolicy(weight=3.0, quota=1),
                "free": TenantPolicy(weight=1.0),
            }, shared_quota=0),
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        session.run_for(txns=400)
        simulator = session.simulator
        quota = simulator.tenancy.quota
        snapshot = quota.snapshot()
        # The tight quota was actually hit...
        assert snapshot["blocked"].get("gold", 0) > 0
        result = session.close()
        # ...every admitted slot was released by its completion...
        assert not quota._quota_held
        assert quota.snapshot()["held"] == {}
        assert quota.snapshot()["shared_used"] == 0
        # ...and nothing was lost or double-counted on the way.
        gold = result.tenants["gold"]
        assert gold.submitted == gold.committed + gold.user_aborted + gold.rejected
        assert result.tenancy["quota"]["blocked"]["gold"] > 0

    def test_quota_reconfigure_never_underflows(self):
        """Slots admitted under a generous quota release under a tight one."""
        artifacts, strategy = fresh_pipeline()
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=PARTITIONS,
            workload=two_tenant_workload(),
            tenancy=standard_tenancy(),
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        session.run_for(txns=200)
        session.reconfigure(tenancy=standard_tenancy(tenants={
            "gold": TenantPolicy(weight=3.0, quota=1),
            "free": TenantPolicy(weight=1.0, quota=1),
        }, shared_quota=0))
        session.run_for(txns=300)
        quota = session.simulator.tenancy.quota
        session.close()
        assert not quota._quota_held
        assert quota.snapshot()["held"] == {}
        assert quota.snapshot()["shared_used"] == 0


class TestSLOProtection:
    @staticmethod
    def _p95(values):
        ordered = sorted(values)
        return ordered[max(0, min(len(ordered) - 1,
                                  math.ceil(0.95 * len(ordered)) - 1))]

    def test_tenancy_protects_gold_at_overload(self):
        """At ~2x overload the shared queue misses gold's SLO; tenancy meets it."""
        # Calibrate offered load and SLO from a closed-loop baseline so the
        # test is scale-independent (a fixed ms target would rot).
        artifacts, strategy = fresh_pipeline("smallbank")
        spec = ClusterSpec(benchmark="smallbank", num_partitions=PARTITIONS)
        with Cluster.open(spec, artifacts=artifacts, strategy=strategy) as session:
            closed = session.run_for(txns=400)
        rate = max(1.0, closed.throughput_txn_per_sec)
        # 7x the unloaded average: loose enough for WFQ to meet (measured
        # ~5.7x under the 2x flood), far below the shared queue's ~25x.
        slo_gold = 7.0 * max(1.0, closed.average_latency_ms)
        tenancy = TenancyConfig(tenants={
            "gold": TenantPolicy(weight=4.0, slo_latency_ms=slo_gold),
            "free": TenantPolicy(weight=1.0, slo_latency_ms=10.0 * slo_gold),
        }, shed=True)
        outcomes = {}
        for label, config in (("shared", None), ("tenancy", tenancy)):
            artifacts, strategy = fresh_pipeline("smallbank")
            spec = ClusterSpec(
                benchmark="smallbank", num_partitions=PARTITIONS,
                workload=TenantSource({
                    "gold": OpenLoopSource(0.5 * rate, "poisson", seed=11),
                    "free": OpenLoopSource(1.5 * rate, "poisson", seed=11),
                }),
                tenancy=config,
            )
            session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
            session.run_for(txns=800)
            outcomes[label] = session.close()
        shared_gold_p95 = self._p95(outcomes["shared"].tenants["gold"].latencies_ms)
        tenant_gold_p95 = self._p95(outcomes["tenancy"].tenants["gold"].latencies_ms)
        assert shared_gold_p95 > slo_gold, "overload must actually hurt the baseline"
        assert tenant_gold_p95 <= slo_gold
        slo = outcomes["tenancy"].tenancy["slo"]
        assert slo["gold"]["met"]
        # Shedding never touches the protected tenant here; only explicitly
        # SLO-bearing tenants are ever shed.
        arrivals = outcomes["tenancy"].tenancy["arrivals"]
        assert arrivals["gold"]["shed"] == 0

    def test_unlabeled_traffic_never_shed(self):
        """tenant=None participates in fairness but is exempt from shedding."""
        artifacts, strategy = fresh_pipeline()
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=PARTITIONS,
            workload=OpenLoopSource(1200.0, "poisson", seed=11),
            tenancy=standard_tenancy(shed_headroom=0.01),
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        result = session.run_for(txns=300)
        session.close()
        assert result.rejected == 0


class TestLiveAttachDetach:
    def test_attach_mid_run(self):
        artifacts, strategy = fresh_pipeline()
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=PARTITIONS,
            workload=two_tenant_workload(),
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        session.run_for(txns=300)
        assert session.simulator.tenancy is None
        session.reconfigure(tenancy=standard_tenancy())
        assert isinstance(session.simulator.scheduler, TenantScheduler)
        session.run_for(txns=300)
        result = session.close()
        assert result.tenancy is not None
        assert set(result.tenancy["slo"]) <= {"gold", "free"}
        assert result.committed + result.user_aborted + result.rejected >= 600

    def test_detach_mid_run(self):
        artifacts, strategy = fresh_pipeline()
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=PARTITIONS,
            workload=two_tenant_workload(),
            tenancy=standard_tenancy(),
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        session.run_for(txns=300)
        session.reconfigure(tenancy=None)
        assert session.simulator.tenancy is None
        assert not isinstance(session.simulator.scheduler, TenantScheduler)
        session.run_for(txns=300)
        result = session.close()
        # The detached second half still completes the full workload; the
        # snapshot reflects the subsystem's absence at close.
        assert result.tenancy is None
        assert result.committed + result.user_aborted >= 550

    def test_spec_round_trip_and_validation(self):
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=PARTITIONS,
            workload=two_tenant_workload(),
            tenancy={"tenants": {"gold": {"weight": 2.0}}},
        )
        assert isinstance(spec.tenancy, TenancyConfig)
        data = spec.to_dict()
        assert data["tenancy"]["tenants"]["gold"]["weight"] == 2.0
        with pytest.raises(SessionError):
            ClusterSpec(
                benchmark="tatp", num_partitions=PARTITIONS,
                tenancy={"tenants": {"gold": {"weight": -1.0}}},
            )

    def test_reconfigure_rejects_garbage(self):
        artifacts, strategy = fresh_pipeline()
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=PARTITIONS,
            workload=two_tenant_workload(),
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        with pytest.raises(SessionError):
            session.reconfigure(tenancy="not-a-config")
        session.close()
