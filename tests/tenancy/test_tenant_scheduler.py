"""TenantScheduler unit tests: weighted fairness, clock hygiene, topology.

The virtual-time contract under the event loop's pop-scan/requeue churn is
the subtle part: virtual time moves only at :meth:`note_dispatched`, a
popped-but-blocked transaction leaves every clock untouched when requeued,
and the idle -> backlogged floor applies only to tenants that genuinely had
nothing in the system.
"""

from __future__ import annotations

import pytest

from repro.scheduling.scheduler import PendingTransaction, TransactionScheduler
from repro.tenancy import TenancyConfig, TenantPolicy, TenantScheduler
from repro.types import ProcedureRequest


def make_pending(index: int, tenant: str | None, cost: float = 10.0,
                 partition: int = 0) -> PendingTransaction:
    return PendingTransaction(
        request=ProcedureRequest(procedure="proc", parameters=(), client_id=index),
        arrival_index=index,
        predicted_cost_ms=cost,
        predicted_partitions=(partition,),
        tenant=tenant,
    )


def make_scheduler(**config_kwargs) -> TenantScheduler:
    return TenantScheduler(TenancyConfig(**config_kwargs))


class TestWeightedFairness:
    def test_dispatch_counts_follow_weights(self):
        """Over a saturated queue, per-tenant dispatched work tracks 4:1."""
        scheduler = make_scheduler(tenants={
            "gold": TenantPolicy(weight=4.0),
            "free": TenantPolicy(weight=1.0),
        })
        for i in range(200):
            scheduler._push(make_pending(2 * i, "gold"))
            scheduler._push(make_pending(2 * i + 1, "free"))
        served = {"gold": 0, "free": 0}
        for _ in range(100):
            pending = scheduler.pop()
            scheduler.note_dispatched(pending)
            served[pending.tenant] += 1
        assert served["gold"] == 80
        assert served["free"] == 20

    def test_all_pushed_work_is_conserved(self):
        """Pops return every queued transaction exactly once."""
        scheduler = make_scheduler(tenants={"a": TenantPolicy(weight=2.0)})
        pushed = [make_pending(i, ("a", "b", None)[i % 3]) for i in range(30)]
        for pending in pushed:
            scheduler._push(pending)
        popped = []
        while scheduler:
            pending = scheduler.pop()
            scheduler.note_dispatched(pending)
            popped.append(pending)
        assert sorted(p.arrival_index for p in popped) == list(range(30))
        assert len(scheduler) == 0

    def test_fifo_within_tenant(self):
        scheduler = make_scheduler()
        for i in range(10):
            scheduler._push(make_pending(i, "t"))
        order = []
        while scheduler:
            pending = scheduler.pop()
            scheduler.note_dispatched(pending)
            order.append(pending.arrival_index)
        assert order == list(range(10))


class TestVirtualClockHygiene:
    def test_blocked_pop_leaves_clocks_untouched(self):
        """pop() + requeue() (partition-blocked) must not move any clock."""
        scheduler = make_scheduler(tenants={"a": TenantPolicy(weight=2.0)})
        scheduler._push(make_pending(0, "a"))
        before = dict(scheduler.fairness_snapshot())
        pending = scheduler.pop()
        scheduler.requeue(pending)
        assert scheduler.fairness_snapshot() == before
        assert len(scheduler) == 1

    def test_only_dispatch_charges(self):
        scheduler = make_scheduler(tenants={"a": TenantPolicy(weight=2.0)})
        scheduler._push(make_pending(0, "a", cost=30.0))
        pending = scheduler.pop()
        scheduler.note_dispatched(pending)
        assert scheduler.fairness_snapshot()["a"] == pytest.approx(15.0)

    def test_min_charge_floor(self):
        """Zero-cost dispatches still advance their tenant's clock."""
        scheduler = make_scheduler()
        scheduler._push(make_pending(0, "a", cost=0.0))
        pending = scheduler.pop()
        scheduler.note_dispatched(pending)
        assert scheduler.fairness_snapshot()["a"] > 0.0

    def test_idle_tenant_floored_to_watermark(self):
        """A tenant arriving after sitting out does not bank credit."""
        scheduler = make_scheduler()
        for i in range(20):
            scheduler._push(make_pending(i, "busy", cost=10.0))
        for _ in range(20):
            scheduler.note_dispatched(scheduler.pop())
        # "busy" consumed 200 predicted ms; a newcomer must not start at 0
        # and then monopolize dispatch until it catches up.
        scheduler._push(make_pending(100, "late", cost=10.0))
        snapshot = scheduler.fairness_snapshot()
        assert snapshot["late"] == pytest.approx(190.0)  # pre-charge watermark

    def test_requeue_is_not_an_idle_transition(self):
        """Requeued work must not be floored as if its tenant were idle.

        gold's clock lags free's (it is owed service); the drain pops both,
        blocks both, requeues both.  gold must keep its lag.
        """
        scheduler = make_scheduler(tenants={
            "gold": TenantPolicy(weight=4.0),
            "free": TenantPolicy(weight=1.0),
        })
        for i in range(10):
            scheduler._push(make_pending(2 * i, "gold"))
            scheduler._push(make_pending(2 * i + 1, "free"))
        for _ in range(6):
            scheduler.note_dispatched(scheduler.pop())
        before = dict(scheduler.fairness_snapshot())
        assert before["gold"] < before["free"]
        popped = [scheduler.pop() for _ in range(len(scheduler))]
        for pending in popped:
            scheduler.requeue(pending)
        assert scheduler.fairness_snapshot() == before


class TestTopology:
    def test_adopt_from_flat_scheduler(self):
        flat = TransactionScheduler(None)
        for i in range(6):
            flat._push(make_pending(i, ("x", None)[i % 2]))
        tenant_scheduler = make_scheduler()
        tenant_scheduler.adopt_from(flat)
        assert len(tenant_scheduler) == 6
        assert tenant_scheduler.backlogged_tenants() == [None, "x"]
        order = []
        while tenant_scheduler:
            pending = tenant_scheduler.pop()
            tenant_scheduler.note_dispatched(pending)
            order.append(pending.arrival_index)
        assert sorted(order) == list(range(6))


class TestIntrospection:
    def test_backlog_accounting(self):
        scheduler = make_scheduler()
        scheduler._push(make_pending(0, "a", cost=5.0))
        scheduler._push(make_pending(1, "b", cost=7.0))
        assert scheduler.predicted_backlog_ms() == pytest.approx(12.0)
        assert scheduler.predicted_backlog_ms_for("a") == pytest.approx(5.0)
        assert scheduler.predicted_backlog_ms_for("missing") == 0.0
        assert scheduler.backlogged_tenants() == ["a", "b"]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            make_scheduler().pop()
