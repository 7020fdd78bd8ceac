"""A prediction-aware transaction scheduler (paper §8, future work).

The scheduler manages the queue of transaction requests waiting at a node.
Each request is annotated with the properties Houdini predicted for it — how
many queries it will run, which partitions it needs, how long it is expected
to take — and a :class:`~repro.scheduling.policies.SchedulingPolicy` decides
which pending transaction to dispatch next.

Two caches keep the per-submission work constant:

* predicted costs are derived once per *transaction class* — the (procedure,
  predicted path, base partition) signature of the estimate — instead of
  re-walking the estimate through the cost model for every request;
* policy sort keys are composed from a per-class component precomputed by
  the policy (:meth:`SchedulingPolicy.class_key`), so dispatch never
  re-derives class properties.

The ready set is a binary heap, i.e. it stays incrementally sorted under
submissions; dispatch is O(log n).  Beside it sit *wait lists*, one per
busy partition: the partition-gated dispatcher parks a blocked transaction
on the predicted partition that frees last (:meth:`TransactionScheduler.
requeue`) and a release wakes only that partition's waiters
(:meth:`TransactionScheduler.wake`).  Parked work is still queued work:
every length, backlog and introspection view covers both.

A lane's wait list on a partition is grouped by *predicted partition set*:
one heap per set.  The gate's verdict is a function of the set alone (for a
fixed ``partition_free`` and ``now``), so a release judges each set once,
not each waiter, and a burst of broadcast waiters moves between wait lists
as one group instead of one entry at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, KeysView

from ..houdini.estimate import PathEstimate
from ..types import PartitionId, ProcedureRequest
from .policies import ArrivalOrderPolicy, SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cost_model import CostModel


#: Dispatch order of queue entries: (policy key, FIFO sequence).
ENTRY_ORDER = itemgetter(0, 1)


def blocking_partition(
    predicted: tuple[PartitionId, ...], partition_free: list[float], now: float
) -> PartitionId:
    """The partition gate: the partition of the ``predicted`` set that frees
    last after ``now``, or -1 when none is busy (ids beyond the cluster are
    not gated).  ``partition_free`` only moves forward, so the verdict cannot
    turn to "free" before that partition's release."""
    wait_on = -1
    num_partitions = len(partition_free)
    for partition_id in predicted:
        if partition_id < num_partitions:
            free_at = partition_free[partition_id]
            if free_at > now:
                now = free_at
                wait_on = partition_id
    return wait_on


def _default_cost_model() -> "CostModel":
    # Imported lazily: the simulator imports this package at module load, so
    # a module-level import of repro.sim here would be circular.
    from ..sim.cost_model import CostModel

    return CostModel()


@dataclass(frozen=True)
class PredictedCost:
    """Predicted resource usage of one transaction, derived from its estimate."""

    queries: int
    service_ms: float
    partitions: tuple[PartitionId, ...]
    single_partition: bool

    @staticmethod
    def from_estimate(
        estimate: PathEstimate,
        base_partition: PartitionId,
        cost_model: "CostModel | None" = None,
    ) -> "PredictedCost":
        """Convert a path estimate into predicted service time.

        The conversion reuses the simulator's cost model so that "predicted
        milliseconds" and "simulated milliseconds" live on the same scale —
        the property the paper's expected-remaining-run-time annotation
        needs.
        """
        model = cost_model or _default_cost_model()
        service_ms = model.planning_ms + model.setup_ms
        for key in estimate.query_vertices:
            service_ms += model.query_cost(key.partitions, base_partition)
        partitions = tuple(estimate.touched_partitions())
        if len(partitions) > 1:
            service_ms += model.two_phase_prepare_ms + model.two_phase_commit_ms
        return PredictedCost(
            queries=estimate.query_count,
            service_ms=service_ms,
            partitions=partitions,
            single_partition=len(partitions) <= 1,
        )


@dataclass(slots=True)
class PendingTransaction:
    """One queued request plus the predictions attached to it."""

    request: ProcedureRequest
    arrival_index: int
    predicted_cost_ms: float = 0.0
    predicted_queries: int = 0
    predicted_partitions: tuple[PartitionId, ...] = ()
    predicted_single_partition: bool = True
    estimate: PathEstimate | None = None
    #: Whether the request was injected from outside the closed loop
    #: (``ClusterSession.submit``): its completion must not re-arm a
    #: closed-loop client, and its rejection must not back one off.
    external: bool = False
    #: Tenant label of the workload stream the request arrived on
    #: (``TenantSource``); ``None`` for unlabeled traffic.
    tenant: str | None = None
    #: How many times admission control pushed this transaction back.
    deferrals: int = 0
    #: Partition whose wait list the transaction last sat on (-1: none); if
    #: examining it leaves that partition free, its successor is woken too.
    parked_on: int = -1
    #: Simulated submission time, stamped by the event-driven simulator so
    #: latencies include queueing delay.
    submit_time_ms: float = 0.0

    @property
    def procedure(self) -> str:
        return self.request.procedure


@dataclass
class SchedulerStats:
    """Counters describing one scheduler's activity.

    ``dispatched`` counts transactions that actually left the queue for
    execution.  ``requeued`` counts the times a transaction left the ready
    set *without* dispatching: one per park on a busy partition, one per
    quota or admission push-back.  ``rejected`` counts pops that admission
    control refused outright.  ``reordered`` counts dispatches that started
    while an older arrival was still queued, ready or parked (one the
    running drain pass has already pushed back is between queues: unseen).

    ``queue_wait_by_class`` is the starvation picture: per transaction
    class (procedure name), summary statistics of the simulated time each
    dispatched transaction spent waiting in the queue — count, mean, max
    and nearest-rank percentiles.  It is a plain dict (filled from
    :meth:`TransactionScheduler.wait_summary` when a result snapshot is
    materialized) so it serializes directly in
    :meth:`~repro.sim.metrics.SimulationResult.to_dict`.
    """

    submitted: int = 0
    dispatched: int = 0
    reordered: int = 0
    requeued: int = 0
    rejected: int = 0
    queue_wait_by_class: dict = field(default_factory=dict)

    @property
    def pending(self) -> int:
        return self.submitted - self.dispatched - self.rejected

    @property
    def max_queue_wait_ms(self) -> float:
        """Largest queue-wait age across every transaction class."""
        if not self.queue_wait_by_class:
            return 0.0
        return max(entry["max_ms"] for entry in self.queue_wait_by_class.values())


class TransactionScheduler:
    """Priority queue of pending transactions under a scheduling policy."""

    def __init__(
        self,
        policy: SchedulingPolicy | None = None,
        *,
        cost_model: "CostModel | None" = None,
        streaming_waits: bool = False,
    ) -> None:
        self.policy = policy or ArrivalOrderPolicy()
        self.cost_model = cost_model or _default_cost_model()
        #: Streaming mode: per-class waits accumulate into O(1)-memory
        #: sketches instead of unbounded lists (``metrics_mode="streaming"``).
        self._streaming_waits = streaming_waits
        self.stats = SchedulerStats()
        self._arrivals = 0
        #: Ready set: lane -> heap of (policy key, seq, pending), lanes with
        #: ready work only.  A lane is one ordering domain: the whole queue
        #: here, one tenant under :class:`~repro.tenancy.scheduler.TenantScheduler`.
        self._ready: dict = {}
        #: Wait lists: partition -> lane -> predicted partition set -> heap
        #: of parked entries in the ready set's order.  Waiters with one set
        #: share one gate verdict, so a release judges each set once and
        #: moves a blocked set's waiters as one group (:meth:`wake`).  A wake
        #: that judges only a lane's head group fails
        #: ``tests/scheduling/test_wait_lists.py::TestGroupedWake``.
        self._wait_lists: dict[PartitionId, dict] = {}
        #: Queued transactions, ready and parked.
        self._queued = 0
        self._sequence = 0
        #: Predicted costs per transaction class (see :meth:`submit`).
        self._cost_cache: dict[tuple, PredictedCost] = {}
        #: Policy class-key components per transaction class.
        self._class_keys: dict[tuple, tuple] = {}
        #: Arrival indexes still queued, as a set plus a lazy-deletion heap
        #: of them, for O(log n) queue-jump detection at dispatch.
        #: Skipped entirely for policies that provably dispatch in arrival
        #: order (FCFS): ``reordered`` is 0 by construction.
        self._track_reorder = not self.policy.preserves_arrival_order
        self._arrival_heap: list[int] = []
        self._waiting: set[int] = set()
        #: Queue-wait ages (ms) of dispatched transactions, per transaction
        #: class; recorded by the simulator at dispatch and summarized into
        #: :attr:`SchedulerStats.queue_wait_by_class` on snapshot.  Survives
        #: :meth:`rekey` — the scheduler keeps describing the same queue.
        #: Zero-wait dispatches (the pass-through fast path) are counted,
        #: not appended, so the saturated closed loop stays O(1) per
        #: transaction in both time and memory.  With ``streaming_waits``
        #: the per-class values are LatencySketch instances, not lists.
        self._waits: dict[str, list] = {}
        self._zero_waits: dict[str, int] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._queued

    def __bool__(self) -> bool:
        return self._queued > 0

    @property
    def has_ready(self) -> bool:
        """Whether :meth:`pop` has a candidate (parked work does not count)."""
        return bool(self._ready)

    # ------------------------------------------------------------------
    def submit(
        self,
        request: ProcedureRequest,
        estimate: PathEstimate | None = None,
        *,
        base_partition: PartitionId = 0,
        tenant: str | None = None,
    ) -> PendingTransaction:
        """Queue one request, deriving predictions from its estimate if given.

        ``tenant`` must be set *here* (not after the call): subclasses that
        maintain per-tenant queues read the label at push time.
        """
        pending = PendingTransaction(
            request=request, arrival_index=self._arrivals, tenant=tenant
        )
        self._arrivals += 1
        if estimate is not None and not estimate.degenerate:
            cost = self._predicted_cost(request.procedure, estimate, base_partition)
            pending.predicted_cost_ms = cost.service_ms
            pending.predicted_queries = cost.queries
            pending.predicted_partitions = cost.partitions
            pending.predicted_single_partition = cost.single_partition
            pending.estimate = estimate
        self._push(pending)
        self.stats.submitted += 1
        return pending

    def pass_through(self, request: ProcedureRequest) -> None:
        """Submit ``request`` to an *empty* queue and dispatch it at once.

        What :meth:`submit` + :meth:`pop` + a zero :meth:`record_wait` leave
        behind when nothing else is queued — the arrival index and the FIFO
        sequence number are consumed, the transaction counts as submitted,
        dispatched and zero-wait — without building the entry that would be
        pushed and popped straight back (an only entry is the head under any
        policy key, and leaves no queue-jump bookkeeping behind).  The caller
        guarantees the empty queue and an estimate-free submission: the
        simulator's FCFS fast loop.
        """
        self._arrivals += 1
        self._sequence += 1
        stats = self.stats
        stats.submitted += 1
        stats.dispatched += 1
        zero_waits = self._zero_waits
        procedure = request.procedure
        zero_waits[procedure] = zero_waits.get(procedure, 0) + 1

    def _predicted_cost(
        self, procedure: str, estimate: PathEstimate, base_partition: PartitionId
    ) -> PredictedCost:
        """Per-class cache around :meth:`PredictedCost.from_estimate`.

        Two requests whose estimates walk the same vertex path from the same
        base partition share one conversion — the transaction-class
        granularity the paper's scheduling sketch needs.
        """
        key = (procedure, base_partition, tuple(estimate.vertices))
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = PredictedCost.from_estimate(estimate, base_partition, self.cost_model)
            self._cost_cache[key] = cost
        return cost

    def predicted_cost_for(
        self, procedure: str, estimate: PathEstimate, base_partition: PartitionId
    ) -> PredictedCost:
        """Public, cached estimate → predicted-cost conversion.

        Lets callers outside the queue (the tenancy shedding policy) price
        an arrival on the same scale — and through the same per-class cache
        — the scheduler itself uses.
        """
        return self._predicted_cost(procedure, estimate, base_partition)

    def rekey(self, policy: SchedulingPolicy | None) -> None:
        """Adopt a new policy mid-stream, re-keying every queued transaction.

        The live-reconfiguration contract of the session API: the queue —
        parked transactions included, which all rejoin the ready set — is
        rebuilt under the new policy's keys, the per-class key cache is
        dropped (it composed keys for the old policy), and the queue-jump
        bookkeeping restarts from the still-queued arrivals.  Stats carry
        over — the scheduler keeps describing the same node queue.
        Transactions queued before the swap keep the prediction annotations
        they were submitted with (an estimate-free FCFS submission stays
        estimate-free under a predictive policy).
        """
        self.policy = policy or ArrivalOrderPolicy()
        self._class_keys.clear()
        queued = self._drain_queued()
        self._track_reorder = not self.policy.preserves_arrival_order
        self._arrival_heap.clear()
        self._waiting.clear()
        for pending in queued:
            self._push(pending)

    def clear_cost_cache(self) -> None:
        """Drop predicted-cost and class-key caches (cost-model mutation)."""
        self._cost_cache.clear()
        self._class_keys.clear()

    def resubmit(self, pending: PendingTransaction) -> None:
        """Return a deferred transaction to the ready set (admission control)."""
        pending.deferrals += 1
        self.requeue(pending)

    def note_rejected(self, pending: PendingTransaction) -> None:
        """Reclassify a popped transaction as rejected, not dispatched."""
        self.stats.dispatched -= 1
        self.stats.rejected += 1

    def note_dispatched(self, pending: PendingTransaction) -> None:
        """The latest pop cleared every gate and is starting execution.

        Counts the dispatch as a queue jump if an older arrival is still
        waiting.  :class:`~repro.tenancy.scheduler.TenantScheduler` also
        advances its virtual clocks on this signal (and only on it — a
        popped transaction that is parked or pushed back moves no clock).
        """
        arrival_heap = self._arrival_heap
        if arrival_heap and arrival_heap[0] < pending.arrival_index:
            self.stats.reordered += 1

    def requeue(
        self, pending: PendingTransaction, partition: PartitionId | None = None
    ) -> None:
        """Take back a popped transaction that did not dispatch.

        With ``partition`` the transaction is *parked* on that partition's
        wait list and stays out of the ready set until :meth:`wake`; without,
        it rejoins the ready set (a quota or admission push-back).  Neither
        counts a deferral: waiting for a busy partition must not eat into
        the ``max_deferrals`` rejection budget.
        """
        self.stats.dispatched -= 1
        self.stats.requeued += 1
        self._queued += 1
        self._track_arrival(pending)
        lane = self._lane(pending)
        if partition is None:
            pending.parked_on = -1
            heapq.heappush(self._ready.setdefault(lane, []), self._entry(pending))
            return
        pending.parked_on = partition
        self._park(partition, lane, pending.predicted_partitions, [self._entry(pending)])

    def _park(
        self, partition: PartitionId, lane, predicted: tuple, entries: list
    ) -> None:
        """Add ``entries`` — a heap, all predicting ``predicted`` — to the
        ``lane`` wait list of ``partition``; the list itself becomes the
        group's heap when the partition holds none for that set yet."""
        lanes = self._wait_lists.get(partition)
        if lanes is None:
            lanes = self._wait_lists[partition] = {}
        groups = lanes.get(lane)
        if groups is None:
            lanes[lane] = {predicted: entries}
            return
        heap = groups.get(predicted)
        if heap is None:
            groups[predicted] = entries
        else:
            for entry in entries:
                heapq.heappush(heap, entry)

    def wake(
        self,
        partition: PartitionId,
        partition_free: list[float],
        now: float,
        successor_of: PendingTransaction | None = None,
    ) -> None:
        """``partition`` is free at ``now`` (the caller checked): per lane, its
        first waiter that clears the partition gate rejoins the ready set.

        Waiters ahead of it that are blocked elsewhere move straight to that
        partition's list.  Later ones stay: a lane dispatches in order, and
        the woken one may take the partition again.  If examining it leaves
        the partition free, the caller passes it back as ``successor_of``
        and that one lane's next waiter follows — a release examines O(1)
        transactions, not the whole list.

        The rule is applied per predicted-partition group: a verdict
        depends on the set, ``partition_free`` and ``now`` alone, so each
        group is judged at most once per call (and never across calls —
        ``partition_free`` moves between them).  The *bound* is the smallest
        head among the groups that clear, the waiter the lane reaches first;
        groups are judged in head order until one clears.  Each blocked
        group moves its entries that sort before the bound to its verdict
        partition — all of them, as one list, when no group clears — with
        ``parked_on`` updated on each; everything else stays.
        """
        wait_lists = self._wait_lists
        lanes = wait_lists.get(partition)
        if not lanes:
            return
        woken = list(lanes) if successor_of is None else (self._lane(successor_of),)
        for lane in woken:
            groups = lanes.get(lane)
            if groups is None:
                continue
            # Judge the groups in head order up to the first that clears:
            # its head is the bound, and no later group holds an entry
            # before it.  Entries compare on (key, seq) alone: seq is unique.
            bound = None
            blocked = []
            for head, predicted, heap in sorted(
                [(heap[0], predicted, heap) for predicted, heap in groups.items()]
            ):
                wait_on = blocking_partition(predicted, partition_free, now)
                if wait_on < 0:
                    bound = head
                    heapq.heappop(heap)
                    if not heap:
                        del groups[predicted]
                    break
                blocked.append((predicted, heap, wait_on))
            for predicted, heap, wait_on in blocked:
                if bound is None:
                    moving = heap
                    del groups[predicted]
                else:
                    # Popped in order, so ``moving`` is itself a valid heap.
                    moving = []
                    while heap and heap[0] < bound:
                        moving.append(heapq.heappop(heap))
                    if not heap:
                        del groups[predicted]
                for entry in moving:
                    entry[2].parked_on = wait_on
                self._park(wait_on, lane, predicted, moving)
            if bound is not None:
                heapq.heappush(self._ready.setdefault(lane, []), bound)
            if not groups:
                del lanes[lane]
        if not lanes:
            del wait_lists[partition]

    def parked_partitions(self) -> KeysView[PartitionId]:
        """Partitions that have transactions parked on them (a live view)."""
        return self._wait_lists.keys()

    def _lane(self, pending: PendingTransaction):
        """The ordering domain ``pending`` dispatches in (one shared lane)."""
        return None

    def _entry(self, pending: PendingTransaction) -> tuple[tuple, int, PendingTransaction]:
        """Compose one heap entry (policy key, FIFO sequence, transaction)."""
        policy = self.policy
        class_signature = (
            pending.procedure,
            pending.predicted_cost_ms,
            pending.predicted_single_partition,
        )
        class_part = self._class_keys.get(class_signature)
        if class_part is None:
            class_part = policy.class_key(pending)
            self._class_keys[class_signature] = class_part
        self._sequence += 1
        return (policy.compose_key(class_part, pending), self._sequence, pending)

    def _push(self, pending: PendingTransaction) -> None:
        """First entry of a transaction into this queue (submit/rekey/adopt)."""
        heapq.heappush(
            self._ready.setdefault(self._lane(pending), []), self._entry(pending)
        )
        self._queued += 1
        self._track_arrival(pending)

    def _track_arrival(self, pending: PendingTransaction) -> None:
        if self._track_reorder:
            self._waiting.add(pending.arrival_index)
            heapq.heappush(self._arrival_heap, pending.arrival_index)

    # ------------------------------------------------------------------
    def _select(self):
        """The lane whose ready head dispatches next (here: the only one)."""
        if not self._ready:
            raise IndexError(f"pop from an empty {type(self).__name__}")
        return None

    def pop(self) -> PendingTransaction:
        """Take the highest-priority *ready* transaction.

        The pop counts as a dispatch until the caller says otherwise
        (:meth:`requeue`, :meth:`resubmit`, :meth:`note_rejected`).
        """
        lane = self._select()
        heap = self._ready[lane]
        pending = heapq.heappop(heap)[2]
        if not heap:
            del self._ready[lane]
        self._queued -= 1
        self._note_pop(pending)
        return pending

    def _note_pop(self, pending: PendingTransaction) -> None:
        """Account one pop: stats, and the arrival leaves the queued set."""
        self.stats.dispatched += 1
        if self._track_reorder:
            waiting = self._waiting
            waiting.discard(pending.arrival_index)
            arrival_heap = self._arrival_heap
            while arrival_heap and arrival_heap[0] not in waiting:
                heapq.heappop(arrival_heap)

    def peek(self) -> PendingTransaction | None:
        """The transaction that :meth:`pop` would return, without removing it."""
        if not self._ready:
            return None
        return self._ready[self._select()][0][2]

    def _queued_entries(self) -> Iterator[tuple]:
        """Every queued entry, ready then parked, in no particular order."""
        parked = (
            groups.values()
            for lanes in self._wait_lists.values()
            for groups in lanes.values()
        )
        return chain.from_iterable(chain(self._ready.values(), *parked))

    def pending_transactions(self) -> list[PendingTransaction]:
        """Every transaction still queued — ready or parked — in the order
        the policy would dispatch them.

        Introspection only (``ClusterSession.in_flight``): the queue is not
        disturbed.
        """
        return [entry[2] for entry in sorted(self._queued_entries(), key=ENTRY_ORDER)]

    # ------------------------------------------------------------------
    # Queue-wait (starvation) tracking
    # ------------------------------------------------------------------
    def record_wait(self, procedure: str, wait_ms: float) -> None:
        """Record the queue-wait age of one dispatched transaction."""
        if wait_ms == 0.0:
            self._zero_waits[procedure] = self._zero_waits.get(procedure, 0) + 1
            return
        waits = self._waits.get(procedure)
        if waits is None:
            if self._streaming_waits:
                from ..sim.sketch import LatencySketch  # lazy: avoids cycle

                waits = LatencySketch()
            else:
                waits = []
            self._waits[procedure] = waits
        waits.append(wait_ms)

    def wait_summary(self) -> dict[str, dict]:
        """Per-class queue-wait summary: count/mean/max + p50/p95/p99.

        Percentiles use the nearest-rank method over every recorded wait
        (zero-wait dispatches included as an implicit sorted prefix), so a
        class starved behind an endless stream of shorter transactions
        shows up as a p99/max far above its mean.

        Under streaming mode the non-zero waits live in a
        :class:`~repro.sim.sketch.LatencySketch` per class: count, mean and
        max stay exact, percentiles come from the sketch (within its
        documented error bound) at the zero-adjusted rank.
        """
        summary: dict[str, dict] = {}
        for procedure in sorted(set(self._waits) | set(self._zero_waits)):
            zeros = self._zero_waits.get(procedure, 0)
            recorded = self._waits.get(procedure)
            # count / sum / max / 0-based rank -> value of the non-zero waits
            if recorded is None:
                nonzero, total, largest, value_at = 0, 0.0, 0.0, None
            elif self._streaming_waits:
                nonzero, total, largest = recorded.count, recorded.total, recorded.max
                value_at = lambda index: recorded.quantile((index + 1) / nonzero)
            else:
                # In place: the next summary sorts a sorted prefix plus the
                # waits recorded since (one merge), and sums the same order.
                recorded.sort()
                nonzero, total, largest = len(recorded), sum(recorded), recorded[-1]
                value_at = recorded.__getitem__
            count = zeros + nonzero

            def percentile(p: int) -> float:
                rank = max(0, -(-count * p // 100) - 1)
                return value_at(rank - zeros) if rank >= zeros else 0.0

            summary[procedure] = {
                "count": count,
                "mean_ms": total / count,
                "max_ms": largest,
                "p50_ms": percentile(50),
                "p95_ms": percentile(95),
                "p99_ms": percentile(99),
            }
        return summary

    def drain(self) -> Iterable[PendingTransaction]:
        """Pop until the queue is empty (dispatch order of the whole backlog)."""
        while self:
            yield self.pop()

    # ------------------------------------------------------------------
    def _drain_queued(self) -> list[PendingTransaction]:
        """Remove and return every queued transaction, parked ones included,
        in dispatch order — so FIFO order among equal-priority siblings
        survives a re-key or a transplant into a differently shaped queue
        (:meth:`adopt_from`)."""
        queued = self.pending_transactions()
        self._ready.clear()
        self._wait_lists.clear()
        self._queued = 0
        return queued

    def adopt_from(self, other: "TransactionScheduler") -> None:
        """Take over another scheduler's state (live tenancy attach/detach).

        Policy, cost model, caches, stats and wait records move across so
        the queue keeps describing the same node; still-queued transactions
        — parked ones too, which rejoin the ready set — are re-pushed
        through this scheduler's own (polymorphic) queue structure in the
        other's dispatch order.  Queue-jump bookkeeping restarts from the
        still-queued arrivals, exactly as in :meth:`rekey`.
        """
        self.policy = other.policy
        self.cost_model = other.cost_model
        self._streaming_waits = other._streaming_waits
        self.stats = other.stats
        self._arrivals = other._arrivals
        self._sequence = other._sequence
        self._cost_cache = other._cost_cache
        self._class_keys = other._class_keys
        self._waits = other._waits
        self._zero_waits = other._zero_waits
        self._track_reorder = not self.policy.preserves_arrival_order
        self._arrival_heap = []
        self._waiting = set()
        for pending in other._drain_queued():
            self._push(pending)

    # ------------------------------------------------------------------
    def predicted_backlog_ms(self) -> float:
        """Total predicted service time of everything still queued."""
        return sum(entry[2].predicted_cost_ms for entry in self._queued_entries())

    def describe(self) -> str:
        return (
            f"TransactionScheduler(policy={self.policy.name}, pending={len(self)}, "
            f"backlog={self.predicted_backlog_ms():.2f}ms)"
        )
