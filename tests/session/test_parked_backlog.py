"""A backlog parked on busy partitions, seen through the session API.

Mid-burst, most of the queue sits on per-partition wait lists rather than in
the scheduler's ready set.  Two things must not depend on where a queued
transaction happens to sit: what the introspection surface reports, and
whether a live reconfiguration carries it along.  Every reconfiguration here
lands on a parked backlog and must end with every submission committed,
aborted or rejected — same seed, same bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.scheduling.admission import AdmissionLimits
from repro.session import Cluster, ClusterSpec
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import OpenLoopSource, TenantSource
from tests.conftest import trained

PARTITIONS = 4


def tenancy(**overrides) -> TenancyConfig:
    fields = dict(tenants={
        "gold": TenantPolicy(weight=3.0), "free": TenantPolicy(weight=1.0),
    })
    fields.update(overrides)
    return TenancyConfig(**fields)


def open_mid_burst(**spec_fields):
    """A session paused 20 simulated ms in: the first burst is still arriving."""
    artifacts = trained("tatp", PARTITIONS, 600, 11)
    spec = ClusterSpec(
        benchmark="tatp", num_partitions=PARTITIONS, learning=False,
        workload=TenantSource({
            "gold": OpenLoopSource(300.0, "poisson", seed=1),
            "free": OpenLoopSource(1500.0, "bursty", seed=2, burst_size=128),
        }),
        **spec_fields,
    )
    session = Cluster.open(spec, artifacts=artifacts)
    session.run_for(sim_seconds=0.02)
    scheduler = session.simulator.scheduler
    assert scheduler.parked_partitions(), "the scenario must pause on a parked backlog"
    assert len(scheduler) > 20
    return session


class TestParkedWorkIsReported:
    def test_introspection_counts_parked_transactions(self):
        session = open_mid_burst(tenancy=tenancy())
        scheduler = session.simulator.scheduler
        backlog = len(scheduler)
        snapshot = session.snapshot_metrics()
        assert snapshot.scheduler_stats.pending == backlog
        queued = [entry for entry in session.in_flight() if entry.state == "queued"]
        assert len(queued) == backlog
        depths = snapshot.tenancy["queue_depths"]
        assert "free" in depths, "the bursting tenant's backlog must be reported"
        assert sum(sum(by_home.values()) for by_home in depths.values()) == backlog
        per_tenant = {
            label: sum(1 for entry in queued if entry.tenant == label)
            for label in ("gold", "free")
        }
        for label, by_home in depths.items():
            assert sum(by_home.values()) == per_tenant[label]
        assert scheduler.backlogged_tenants() == sorted(depths)
        assert scheduler.predicted_backlog_ms() == pytest.approx(
            sum(entry.predicted_remaining_ms for entry in queued)
        )
        assert scheduler.predicted_backlog_ms_for("free") == pytest.approx(sum(
            entry.predicted_remaining_ms for entry in queued if entry.tenant == "free"
        ))
        session.close()


#: name -> (spec fields at open, reconfigure kwargs applied mid-burst)
RECONFIGURATIONS = {
    "gate-off": (dict(policy="shortest-predicted"), dict(policy="fcfs")),
    "rekey": (dict(policy="shortest-predicted"), dict(policy="single-partition-first")),
    "tenancy-detach": (dict(tenancy=tenancy()), dict(tenancy=None)),
    "tenancy-attach": (dict(policy="shortest-predicted"), dict(tenancy=tenancy())),
    "admission": (
        dict(tenancy=tenancy()),
        dict(admission=AdmissionLimits(max_in_flight=2, max_deferrals=1_000_000))),
}


def reconfigured_run(name: str) -> str:
    spec_fields, change = RECONFIGURATIONS[name]
    session = open_mid_burst(**spec_fields)
    simulator = session.simulator
    backlog = len(simulator.scheduler)
    session.reconfigure(**change)
    scheduler = simulator.scheduler
    assert len(scheduler) == backlog, "the swap itself must not lose queued work"
    session.run_for(sim_seconds=0.06)
    result = session.drain()
    assert session.in_flight() == []
    assert len(scheduler) == 0 and not scheduler.parked_partitions()
    stats = result.scheduler_stats
    assert stats.pending == 0
    assert stats.submitted == stats.dispatched + stats.rejected
    assert stats.dispatched == result.committed + result.user_aborted
    assert stats.rejected == result.rejected
    for tenant in result.tenants.values():
        assert tenant.submitted == (
            tenant.committed + tenant.user_aborted + tenant.rejected
        )
    return json.dumps(session.close().to_dict(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(RECONFIGURATIONS))
def test_reconfigure_over_a_parked_backlog(name):
    assert reconfigured_run(name) == reconfigured_run(name)
