"""The per-tenant predicted backlog is an exact running total.

The shed predictor reads ``TenantScheduler.predicted_backlog_ms_for`` on
every arrival, so the scheduler keeps it as a running total instead of
re-summing the tenant's queue.  Random sequences of queue operations —
push, pop then dispatch / park / push back / reject, releases that wake
parked work (the successor wake included), ``rekey``, ``adopt_from`` both
ways and ``set_tenancy`` — are applied to one scheduler, and after every
step each tenant's reading must equal ``math.fsum`` of the
``predicted_cost_ms`` it has queued, ready or parked: exactly, whatever
order the costs arrived and left in, and exactly ``0.0`` with nothing
queued.  The costs mix magnitudes (``1e16`` beside ``0.1``, subnormals),
where a floating-point running sum would drift from the true total.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scheduling.policies import (
    ArrivalOrderPolicy,
    ShortestPredictedFirstPolicy,
)
from repro.scheduling.scheduler import (
    PendingTransaction,
    TransactionScheduler,
    blocking_partition,
)
from repro.tenancy import TenancyConfig, TenantPolicy, TenantScheduler
from repro.types import ProcedureRequest

PARTITIONS = 4
LABELS = (None, "a", "b")

costs = st.one_of(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, 0.1, 0.2, 0.3, 1.0, 1e16, 1e-300, 5e-324)),
)
predicted_sets = st.sampled_from(
    ((), (0,), (1,), (0, 1), (1, 2, 3), tuple(range(PARTITIONS)))
)
operations = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(LABELS), costs, predicted_sets),
    st.tuples(st.just("pop"),
              st.sampled_from(("dispatch", "park", "push back", "reject"))),
    st.tuples(st.just("occupy"), st.integers(0, PARTITIONS - 1), st.integers(1, 4)),
    st.tuples(st.just("advance"), st.integers(1, 3)),
    st.tuples(st.just("rekey"), st.booleans()),
    st.tuples(st.just("adopt"), st.booleans()),
    st.tuples(st.just("set_tenancy"), st.sampled_from((0.5, 1.0, 4.0))),
)


def _config(weight: float = 1.0) -> TenancyConfig:
    return TenancyConfig(tenants={"a": TenantPolicy(weight=weight)})


class Queue:
    """One scheduler under a sequence of operations, plus the partition
    clock its gate reads."""

    def __init__(self) -> None:
        self.scheduler = TenantScheduler(_config())
        self.partition_free = [0.0] * PARTITIONS
        self.now = 0.0
        self.arrivals = 0

    def apply(self, operation) -> None:
        kind, *args = operation
        getattr(self, kind.replace(" ", "_"))(*args)

    def push(self, label, cost, predicted) -> None:
        pending = PendingTransaction(
            request=ProcedureRequest("proc", (), client_id=self.arrivals),
            arrival_index=self.arrivals,
            predicted_cost_ms=cost,
            predicted_partitions=predicted,
            predicted_single_partition=len(predicted) <= 1,
            tenant=label,
        )
        self.arrivals += 1
        self.scheduler._push(pending)
        self.scheduler.stats.submitted += 1

    def pop(self, action) -> None:
        scheduler = self.scheduler
        if not scheduler.has_ready:
            return
        pending = scheduler.pop()
        wait_on = blocking_partition(pending.predicted_partitions, self.partition_free, self.now)
        if action == "park" and wait_on >= 0:
            scheduler.requeue(pending, wait_on)
        elif action == "push back":
            scheduler.requeue(pending)
        elif action == "reject":
            scheduler.note_rejected(pending)
        else:
            scheduler.note_dispatched(pending)
            for partition_id in pending.predicted_partitions:
                self.partition_free[partition_id] = self.now + 1.0
        woken_from = pending.parked_on
        if woken_from >= 0 and self.partition_free[woken_from] <= self.now:
            scheduler.wake(woken_from, self.partition_free, self.now, pending)

    def occupy(self, partition_id, duration) -> None:
        self.partition_free[partition_id] = self.now + duration

    def advance(self, step) -> None:
        self.now += step
        for partition_id in [p for p in self.scheduler.parked_partitions()
                             if self.partition_free[p] <= self.now]:
            self.scheduler.wake(partition_id, self.partition_free, self.now)

    def rekey(self, shortest_first) -> None:
        self.scheduler.rekey(
            ShortestPredictedFirstPolicy() if shortest_first else ArrivalOrderPolicy()
        )

    def adopt(self, through_flat) -> None:
        """A live re-attach, optionally through a detached (flat) queue."""
        source = self.scheduler
        if through_flat:
            source = TransactionScheduler()
            source.adopt_from(self.scheduler)
        fresh = TenantScheduler(self.scheduler.tenancy_config)
        fresh.adopt_from(source)
        self.scheduler = fresh

    def set_tenancy(self, weight) -> None:
        self.scheduler.set_tenancy(_config(weight))


def _check(scheduler: TenantScheduler) -> None:
    queued = scheduler.pending_transactions()
    assert len(queued) == len(scheduler)
    for label in LABELS:
        mine = [p.predicted_cost_ms for p in queued if p.tenant == label]
        backlog = scheduler.predicted_backlog_ms_for(label)
        assert backlog == math.fsum(mine), (label, backlog, mine)
        if not mine:
            assert backlog == 0.0 and math.copysign(1.0, backlog) == 1.0


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(operations, min_size=1, max_size=80))
# A float running sum absorbs the 1.0 into 1e16 and reads 0.0 once 1e16
# leaves; 0.1 + 0.2 - 0.1 - 0.2 leaves it a residue on an empty queue.
@example(steps=[("push", "a", 1e16, ()), ("push", "a", 1.0, ()), ("pop", "dispatch")])
@example(steps=[("push", "b", 0.1, ()), ("push", "b", 0.2, ()),
                ("pop", "dispatch"), ("pop", "dispatch")])
def test_backlog_is_the_exact_sum_of_queued_costs(steps):
    queue = Queue()
    for operation in steps:
        queue.apply(operation)
        _check(queue.scheduler)
    while queue.scheduler:
        queue.advance(4)
        while queue.scheduler.has_ready:
            queue.pop("dispatch")
            _check(queue.scheduler)
    _check(queue.scheduler)


def test_an_unbounded_backlog_reads_inf_and_recovers():
    """An infinite cost (a price that overflowed) or a total past the
    largest float reads ``inf``, as a float sum would; removing it restores
    the exact total."""
    queue = Queue()
    queue.push("a", 1.5, ())
    queue.push("a", math.inf, ())
    assert queue.scheduler.predicted_backlog_ms_for("a") == math.inf
    queue.scheduler.rekey(ArrivalOrderPolicy())
    queue.pop("dispatch")
    assert queue.scheduler.predicted_backlog_ms_for("a") == math.inf
    queue.pop("dispatch")
    assert queue.scheduler.predicted_backlog_ms_for("a") == 0.0
    queue.push("b", 1.7e308, ())
    queue.push("b", 1.7e308, ())
    assert queue.scheduler.predicted_backlog_ms_for("b") == math.inf
    queue.pop("dispatch")
    assert queue.scheduler.predicted_backlog_ms_for("b") == 1.7e308
