"""The ready set and the per-partition wait lists.

Parking is how the partition-gated dispatcher skips work: a transaction
whose predicted partitions are busy leaves the ready set for the wait list
of the partition that frees last, and only that partition's release looks
at it again.  Two contracts are held here: parked work is still *queued*
work in every length, backlog and introspection view, and a release wakes
one waiter per lane (its successor only on request), never the whole list.
"""

from __future__ import annotations

import pytest

from repro.scheduling.policies import ShortestPredictedFirstPolicy
from repro.scheduling.scheduler import (
    PendingTransaction,
    TransactionScheduler,
    blocking_partition,
)
from repro.tenancy import TenancyConfig, TenantPolicy, TenantScheduler
from repro.types import ProcedureRequest


def make_pending(index, partitions=(0,), tenant=None, cost=10.0):
    return PendingTransaction(
        request=ProcedureRequest(procedure="proc", parameters=(), client_id=index),
        arrival_index=index,
        predicted_cost_ms=cost,
        predicted_partitions=tuple(partitions),
        predicted_single_partition=len(partitions) <= 1,
        tenant=tenant,
    )


def push_all(scheduler, pendings):
    for pending in pendings:
        scheduler._push(pending)
        scheduler.stats.submitted += 1


def park_all(scheduler, partition_free, now=0.0):
    """One gated drain pass in which nothing can dispatch."""
    parked = []
    while scheduler.has_ready:
        pending = scheduler.pop()
        wait_on = blocking_partition(pending.predicted_partitions, partition_free, now)
        assert wait_on >= 0
        scheduler.requeue(pending, wait_on)
        parked.append(pending)
    return parked


class TestBlockingPartition:
    def test_picks_the_partition_that_frees_last(self):
        predicted = (0, 1, 2)
        assert blocking_partition(predicted, [5.0, 9.0, 7.0], 1.0) == 1
        assert blocking_partition(predicted, [5.0, 9.0, 7.0], 8.0) == 1
        assert blocking_partition(predicted, [5.0, 9.0, 7.0], 9.0) == -1

    def test_unpredicted_and_out_of_range_are_not_gated(self):
        assert blocking_partition((), [9.0], 0.0) == -1
        assert blocking_partition((7,), [9.0], 0.0) == -1
        assert blocking_partition((7, 0), [9.0], 0.0) == 0


class TestParkedWorkIsQueuedWork:
    def test_every_view_of_the_flat_scheduler_includes_parked(self):
        scheduler = TransactionScheduler()
        pendings = [make_pending(i, partitions=(i % 2,), cost=1.0 + i) for i in range(6)]
        push_all(scheduler, pendings)
        park_all(scheduler, [5.0, 7.0])
        assert not scheduler.has_ready and scheduler.peek() is None
        with pytest.raises(IndexError):
            scheduler.pop()
        assert len(scheduler) == 6 and bool(scheduler)
        assert scheduler.stats.pending == 6
        assert scheduler.stats.dispatched == 0 and scheduler.stats.requeued == 6
        assert scheduler.pending_transactions() == pendings  # FCFS dispatch order
        assert scheduler.predicted_backlog_ms() == pytest.approx(sum(1.0 + i for i in range(6)))
        assert "pending=6" in scheduler.describe()
        assert sorted(scheduler.parked_partitions()) == [0, 1]

    def test_every_view_of_the_tenant_scheduler_includes_parked(self):
        scheduler = TenantScheduler(TenancyConfig(
            tenants={"gold": TenantPolicy(weight=4.0)},
        ))
        pendings = [
            make_pending(i, partitions=(i % 3,), tenant=("gold", "free")[i % 2], cost=2.0)
            for i in range(12)
        ]
        push_all(scheduler, pendings)
        park_all(scheduler, [5.0, 7.0, 9.0])
        assert not scheduler.has_ready
        assert len(scheduler) == 12 and bool(scheduler)
        assert scheduler.stats.pending == 12
        assert scheduler.backlogged_tenants() == ["free", "gold"]
        assert scheduler.predicted_backlog_ms() == pytest.approx(24.0)
        assert scheduler.predicted_backlog_ms_for("free") == pytest.approx(12.0)
        assert scheduler.predicted_backlog_ms_for("gold") == pytest.approx(12.0)
        assert scheduler.queue_depths() == {"free": {"0": 6}, "gold": {"0": 6}}
        assert "pending=12" in scheduler.describe() and "tenants=2" in scheduler.describe()
        # Equal clocks: unlabeled-first/lexicographic tenant order, FIFO inside.
        order = [(p.tenant, p.arrival_index) for p in scheduler.pending_transactions()]
        assert order == sorted(order)

    def test_a_tenant_with_only_parked_work_is_not_idle(self):
        """The idle -> backlogged floor must not hit a tenant whose whole
        backlog happens to be parked when its next request arrives."""
        scheduler = TenantScheduler(TenancyConfig())
        push_all(scheduler, [make_pending(i, tenant="busy") for i in range(8)])
        push_all(scheduler, [make_pending(100, partitions=(1,), tenant="lagging")])
        for _ in range(8):
            pending = scheduler.pop()
            if pending.tenant == "lagging":
                scheduler.requeue(pending, 1)
            else:
                scheduler.note_dispatched(pending)
        before = scheduler.fairness_snapshot()
        assert before["busy"] > 0.0 and "lagging" not in before  # clock still at 0
        push_all(scheduler, [make_pending(101, partitions=(1,), tenant="lagging")])
        assert scheduler.fairness_snapshot() == before


class TestWake:
    def test_a_release_wakes_one_waiter_per_lane(self):
        scheduler = TenantScheduler(TenancyConfig())
        push_all(scheduler, [
            make_pending(i, partitions=(0,), tenant=("a", "b")[i % 2]) for i in range(10)
        ])
        partition_free = [5.0]
        park_all(scheduler, partition_free)
        scheduler.wake(0, partition_free, 5.0)
        woken = [scheduler.pop() for _ in range(2)]
        assert not scheduler.has_ready
        assert sorted(p.arrival_index for p in woken) == [0, 1]
        assert all(p.parked_on == 0 for p in woken)
        # The head left the partition free: its lane's next waiter follows,
        # the other lane's does not.
        scheduler.wake(0, partition_free, 5.0, woken[0])
        successor = scheduler.pop()
        assert successor.tenant == woken[0].tenant
        assert successor.arrival_index == woken[0].arrival_index + 2
        assert not scheduler.has_ready and len(scheduler) == 7

    def test_waiters_blocked_elsewhere_move_without_entering_the_ready_set(self):
        scheduler = TransactionScheduler()
        both, first, second = (make_pending(0, partitions=(0, 1)),
                               make_pending(1), make_pending(2))
        push_all(scheduler, [both, first, second])
        partition_free = [5.0, 3.0]
        park_all(scheduler, partition_free)
        assert list(scheduler.parked_partitions()) == [0]
        partition_free[1] = 9.0  # taken again while everyone waited on 0
        requeued = scheduler.stats.requeued
        scheduler.wake(0, partition_free, 5.0)
        assert scheduler.pop() is first  # `both` was passed over, not popped
        assert both.parked_on == 1 and list(scheduler.parked_partitions()) == [0, 1]
        assert scheduler.stats.requeued == requeued  # a move is not a requeue
        assert not scheduler.has_ready  # `second` waits for wake(successor_of=)
        assert scheduler.pending_transactions() == [both, second]

    def test_rekey_and_adopt_return_parked_work_to_the_ready_set(self):
        flat = TransactionScheduler()
        pendings = [make_pending(i, tenant=("a", None)[i % 2]) for i in range(6)]
        push_all(flat, pendings)
        park_all(flat, [5.0])
        flat.rekey(ShortestPredictedFirstPolicy())
        assert not flat.parked_partitions() and len(flat) == 6
        park_all(flat, [5.0])
        layered = TenantScheduler(TenancyConfig())
        layered.adopt_from(flat)
        assert len(flat) == 0
        assert len(layered) == 6 and not layered.parked_partitions()
        assert layered.backlogged_tenants() == [None, "a"]
        drained = []
        while layered.has_ready:
            drained.append(layered.pop())
        assert sorted(p.arrival_index for p in drained) == list(range(6))


class TestGroupedWake:
    """A lane's waiters on a partition are grouped by predicted partition
    set and each set is judged once per release — with exactly the
    per-waiter rule's outcome: waiters before the lane's first clearing one
    move, that one wakes, the rest stay."""

    def test_a_blocked_group_moves_only_the_waiters_before_the_bound(self):
        scheduler = TransactionScheduler()
        wide_first = make_pending(0, partitions=(0, 1))
        single = make_pending(1, partitions=(0,))
        wide_last = make_pending(2, partitions=(0, 1))
        push_all(scheduler, [wide_first, single, wide_last])
        partition_free = [5.0, 3.0]
        park_all(scheduler, partition_free)
        assert list(scheduler.parked_partitions()) == [0]
        partition_free[1] = 9.0
        scheduler.wake(0, partition_free, 5.0)
        assert scheduler.pop() is single
        assert wide_first.parked_on == 1  # moved: it sorts before `single`
        assert wide_last.parked_on == 0   # stays: it sorts after
        assert sorted(scheduler.parked_partitions()) == [0, 1]
        assert scheduler.pending_transactions() == [wide_first, wide_last]
        # The successor: nothing clears now, so the whole group moves.
        scheduler.wake(0, partition_free, 5.0, single)
        assert wide_last.parked_on == 1 and list(scheduler.parked_partitions()) == [1]
        scheduler.wake(1, partition_free, 9.0)
        assert scheduler.pop() is wide_first and not scheduler.has_ready

    def test_a_verdict_is_not_reused_by_the_next_wake(self):
        scheduler = TransactionScheduler()
        first, second = make_pending(0, partitions=(0, 1)), make_pending(1, partitions=(0, 1))
        single = make_pending(2, partitions=(0,))
        push_all(scheduler, [first, second, single])
        partition_free = [5.0, 3.0]
        park_all(scheduler, partition_free)
        scheduler.wake(0, partition_free, 5.0)
        assert scheduler.pop() is first
        partition_free[1] = 9.0  # `first` took partition 1 only
        scheduler.wake(0, partition_free, 5.0, first)
        assert scheduler.pop() is single
        assert second.parked_on == 1 and list(scheduler.parked_partitions()) == [1]

    def test_every_parked_waiter_knows_its_partition(self):
        scheduler = TenantScheduler(TenancyConfig())
        sets = [(0, 1, 2), (0, 1, 2), (1, 2), (2,), (0, 1, 2), (0, 2)]
        pendings = [
            make_pending(i, partitions=sets[i % len(sets)], tenant=("a", "b")[i % 2])
            for i in range(24)
        ]
        push_all(scheduler, pendings)
        partition_free = [5.0, 7.0, 9.0]
        park_all(scheduler, partition_free)
        assert list(scheduler.parked_partitions()) == [2]
        partition_free[:] = [12.0, 10.0, 9.0]
        for now in (9.0, 10.0, 12.0):
            for partition_id in [p for p in scheduler.parked_partitions()
                                 if partition_free[p] <= now]:
                scheduler.wake(partition_id, partition_free, now)
            for partition_id, lanes in scheduler._wait_lists.items():
                for lane, groups in lanes.items():
                    for predicted, heap in groups.items():
                        for _key, _seq, pending in heap:
                            assert pending.parked_on == partition_id
                            assert pending.predicted_partitions == predicted
                            assert pending.tenant == lane
        assert len(scheduler) == 24


class TestChurnCounters:
    def test_requeued_counts_departures_from_the_ready_set(self):
        scheduler = TransactionScheduler()
        push_all(scheduler, [make_pending(0)])
        scheduler.requeue(scheduler.pop(), 0)            # park
        scheduler.wake(0, [0.0], 0.0)
        scheduler.requeue(scheduler.pop())               # quota push-back
        scheduler.resubmit(scheduler.pop())              # admission deferral
        pending = scheduler.pop()
        scheduler.note_dispatched(pending)
        assert scheduler.stats.requeued == 3
        assert scheduler.stats.dispatched == 1 and pending.deferrals == 1

    def test_reordered_counts_dispatches_not_examinations(self):
        scheduler = TransactionScheduler(ShortestPredictedFirstPolicy())
        old_long = make_pending(0, partitions=(1,), cost=50.0)
        short = make_pending(1, partitions=(0,), cost=1.0)
        shorter = make_pending(2, partitions=(1,), cost=0.5)
        push_all(scheduler, [old_long, short, shorter])
        partition_free = [0.0, 5.0]
        # shorter and old_long are examined and parked: no jump yet.
        assert scheduler.pop() is shorter
        scheduler.requeue(shorter, 1)
        assert scheduler.pop() is short
        scheduler.note_dispatched(short)  # old_long (ready) is older: a jump
        assert scheduler.stats.reordered == 1
        assert scheduler.pop() is old_long
        scheduler.requeue(old_long, 1)
        assert scheduler.stats.reordered == 1
        scheduler.wake(1, partition_free, 5.0)
        assert scheduler.pop() is shorter
        scheduler.note_dispatched(shorter)  # old_long is parked, still older
        assert scheduler.stats.reordered == 2
        scheduler.wake(1, partition_free, 5.0, shorter)
        assert scheduler.pop() is old_long
        scheduler.note_dispatched(old_long)  # nothing older is left
        assert scheduler.stats.reordered == 2
