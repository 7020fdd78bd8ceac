"""Partition-gate verdicts per dispatch, counted.

``gate_checks_per_dispatch`` counts calls of the partition gate
(``blocking_partition``) through wrappers this test installs on the two
modules that call it: the scheduler's ``wake`` (a release judging its
waiters) and the simulator's ``_drain`` (each popped candidate), divided by
the transactions dispatched meanwhile.  The shape is ``benchmarks/e2e``'s
``tatp_tenants_overload`` — two tenants, the free tier in 512-request bursts
at twice what the gated cluster serves, 16 partitions, a 1500-transaction
trace — counted over ``COUNTED_S`` simulated seconds after a ``WARMUP_S``
warm-up.  The count is a function of the code and the seed, not of the host.

Recorded at the parent commit (one flat heap per lane and partition, every
waiter judged on its own), same function, same shape: **11.95** verdicts
per dispatch in ``wake`` plus **1.64** at the drain's pop.  A
sixteen-partition waiter parks on the partition that frees last; in a
free-tier burst every such waiter sits on the same one, and each release of
it moved them one at a time, each re-judged.  On the e2e shape the parent
reads about 11.6 + 1.65.  Grouped by predicted partition set: 1.05 + 1.64.

The gate (ROADMAP item 2: at most 2 re-checks per dispatch): ``wake`` at most
1.5 per dispatch, both together at most 3.
"""

from __future__ import annotations

import pytest

import repro.scheduling.scheduler as scheduler_module
import repro.sim.simulator as simulator_module
from repro.session import Cluster, ClusterSpec
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import OpenLoopSource, TenantSource
from tests.conftest import trained

WARMUP_S = 2.0
COUNTED_S = 10.0
WAKE_GATE = 1.5
TOTAL_GATE = 3.0


def gate_checks_per_dispatch() -> dict[str, float]:
    """Gate verdicts per dispatch, split into ``wake`` and ``drain``."""
    spec = ClusterSpec(
        benchmark="tatp", num_partitions=16, strategy="houdini",
        model_provider="global", trace_transactions=1500, seed=0, learning=False,
        workload=TenantSource({
            "gold": OpenLoopSource(150.0, "poisson", seed=1),
            "free": OpenLoopSource(400.0, "bursty", seed=2, burst_size=512),
        }),
        tenancy=TenancyConfig(
            tenants={
                "gold": TenantPolicy(weight=4.0, slo_latency_ms=250.0),
                "free": TenantPolicy(weight=1.0, slo_latency_ms=3000.0),
            },
            shed=True,
        ),
    )
    session = Cluster.open(spec, artifacts=trained("tatp", 16, 1500, 0))
    counts = {"wake": 0, "drain": 0}
    real = scheduler_module.blocking_partition

    def counted(site):
        def gate(*args):
            counts[site] += 1
            return real(*args)
        return gate

    try:
        session.run_for(sim_seconds=WARMUP_S)
        stats = session.simulator.scheduler.stats
        dispatched = stats.dispatched
        scheduler_module.blocking_partition = counted("wake")
        simulator_module.blocking_partition = counted("drain")
        try:
            session.run_for(sim_seconds=COUNTED_S)
        finally:
            scheduler_module.blocking_partition = real
            simulator_module.blocking_partition = real
        dispatched = stats.dispatched - dispatched
        assert dispatched > 0
    finally:
        session.close()
    return {site: count / dispatched for site, count in counts.items()}


class TestCountedGate:
    @pytest.fixture(scope="class")
    def measured(self):
        return gate_checks_per_dispatch()

    def test_a_release_judges_each_partition_set_once(self, measured):
        assert measured["wake"] <= WAKE_GATE, measured

    def test_verdicts_per_dispatch(self, measured):
        assert measured["wake"] + measured["drain"] <= TOTAL_GATE, measured
