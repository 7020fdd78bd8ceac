"""Sharded execution backend: partition workers over OS processes.

The discrete-event core — clock, scheduler, admission, client model and
every metric accumulator — stays on the single coordinator process.  What
moves off it is the *functional* execution of transaction logic: the
partitions are sharded across ``num_workers`` forked OS processes, and a
single-partition transaction whose plan can be predicted from the
estimate cache is dispatched whole to the worker owning its home
partition.  The coordinator keeps popping later arrivals while workers
execute, then *folds* each result back into the simulated timeline in
submission order.

Determinism contract
--------------------

Simulated results are byte-identical to the inline backend under the
same seed.  The fold path guarantees this by keeping every simulated
decision on the coordinator:

* arrivals are popped from the event heap in exactly the inline order
  (the pipeline-depth condition only ever *delays* a pop relative to
  work that the inline loop would have interleaved, never reorders it),
  and the workload generator, scheduler and RNG are consumed at pop
  time;
* the *authoritative* plan for each transaction is produced at fold
  time by the real strategy (``plan_initial``), in submission order,
  against coordinator state that reflects every earlier transaction —
  the worker's execution is merely a speculative materialization of it;
* a fold first checks that the worker executed under exactly the
  authoritative plan's arguments, then replays the plan's run-time
  monitor over the worker's invocation stream (OP3/OP4 bookkeeping);
  any divergence rejects the speculation and re-executes the
  transaction locally, after unwinding the worker's state;
* simulated timing, latency accounting and the client's next-arrival
  event are all derived at fold time from the same record the inline
  loop would have produced.

Workers never see the clock or the RNG; they are pure executors whose
only observable product is an :class:`~repro.engine.engine.AttemptResult`
plus a replayable write-effect stream.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from collections import deque
from heapq import heappop, heappush

from ...errors import MispredictionAbort, SessionError
from ...houdini.runtime import HoudiniRuntime
from ...strategies.houdini_strategy import HoudiniStrategy
from ...types import ProcedureRequest
from ..events import CLIENT_READY
from .effects import CapturingUndoLog, apply_ops
from .protocol import (
    MSG_BATCH,
    MSG_QUIT,
    MSG_REPORT,
    MSG_ROLLBACK,
    MSG_ROLLBACK_ACK,
    REPORT_ERR,
    REPORT_OK,
    SUB_DISPATCH,
    SUB_EFFECTS,
)
from .worker import worker_main

_INF = float("inf")

#: Local-execution entry (no dispatch), dispatched-in-flight, and
#: dispatch-eligible-but-deferred pipeline entry kinds.
_LOCAL, _INFLIGHT, _DEFERRED = "l", "w", "q"


class _Entry:
    """One submitted-but-not-yet-folded transaction in the pipeline."""

    __slots__ = ("pop_time", "request", "client_id", "kind", "did", "worker", "spec")

    def __init__(self, pop_time, request, client_id, did):
        self.pop_time = pop_time
        self.request = request
        self.client_id = client_id
        self.did = did
        self.kind = _LOCAL
        self.worker = -1
        self.spec = None


class ShardedBackend:
    """Coordinator-side driver of the worker pool."""

    #: Maximum submitted-but-unfolded transactions (bounds coordinator
    #: memory and the re-execution cost of a cascade).
    MAX_PIPELINE = 96
    #: Maximum in-flight dispatches per worker.  Keeps the request pipe's
    #: kernel buffer from filling (a blocking coordinator ``send`` would
    #: deadlock against a worker blocked on its report ``send``).
    MAX_PER_WORKER = 16
    #: Coalesce this many buffered messages into one pipe write.  Every
    #: ``send`` is a syscall plus (on a busy host) a context switch, and
    #: at tens of microseconds each they dominate the dispatch cost; the
    #: buffer is otherwise flushed on demand, right before the
    #: coordinator blocks on a report it needs.
    FLUSH_BATCH = 8

    def __init__(self, sim, num_workers: int) -> None:
        self.sim = sim
        self.num_workers = max(1, min(int(num_workers), sim._num_partitions))
        strategy = sim.strategy
        self._houdini = strategy if isinstance(strategy, HoudiniStrategy) else None
        self._procs: list = []
        self._conns: list = []
        self._started = False
        self._pending: list[_Entry] = []
        self._seq = 0  # next dispatch id; assigned at pop to *every* entry
        self._watermark = -1  # highest folded (durable) dispatch id
        self._outstanding = [0] * self.num_workers
        self._outbox: list[list] = [[] for _ in range(self.num_workers)]
        self._inbox: list[deque] = [deque() for _ in range(self.num_workers)]
        #: Highest dispatch id buffered / actually flushed, per worker.
        #: A fold only forces a flush when the dispatch it waits on is
        #: still buffered; otherwise the outbox keeps accumulating into
        #: a bigger (cheaper) batch.
        self._buffered_high = [-1] * self.num_workers
        self._flushed_high = [-1] * self.num_workers
        self._queued_total = 0
        self._barrier = 0  # local entries currently pending
        #: Observability counters (not part of any simulated metric).
        self.stats = {"dispatched": 0, "accepted": 0, "rejected": 0, "cascades": 0, "local": 0}

    # ------------------------------------------------------------------
    # Shard topology
    # ------------------------------------------------------------------
    def worker_of(self, partition_id: int) -> int:
        """Contiguous range sharding: partition → owning worker."""
        return partition_id * self.num_workers // self.sim._num_partitions

    def shard_partitions(self, worker: int) -> tuple[int, ...]:
        return tuple(
            p
            for p in range(self.sim._num_partitions)
            if self.worker_of(p) == worker
        )

    # ------------------------------------------------------------------
    # Worker pool lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the worker pool (lazily, at the first dispatch).

        Dispatch eligibility requires an empty pipeline barrier, so at
        first-dispatch time every earlier transaction has been folded and
        the coordinator database is a consistent snapshot for the
        copy-on-write fork.
        """
        if self._started:
            return
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SessionError(
                "execution_backend='sharded' requires the 'fork' process "
                "start method, which this platform does not provide"
            )
        sim = self.sim
        ctx = multiprocessing.get_context("fork")
        for worker in range(self.num_workers):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=worker_main,
                args=(
                    child_conn,
                    sim.coordinator.engine.catalog,
                    sim.database,
                    self.shard_partitions(worker),
                ),
                daemon=True,
                name=f"repro-shard-{worker}",
            )
            process.start()
            child_conn.close()
            self._procs.append(process)
            self._conns.append(parent_conn)
        self._started = True

    def shutdown(self) -> None:
        """Stop the worker pool (idempotent)."""
        if not self._started:
            return
        for conn in self._conns:
            try:
                conn.send((MSG_QUIT,))
            except (BrokenPipeError, OSError):
                pass
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []
        self._started = False
        self._outstanding = [0] * self.num_workers
        self._outbox = [[] for _ in range(self.num_workers)]
        self._inbox = [deque() for _ in range(self.num_workers)]
        self._buffered_high = [-1] * self.num_workers
        self._flushed_high = [-1] * self.num_workers

    # ------------------------------------------------------------------
    # Pipe plumbing (fail loudly on worker death)
    # ------------------------------------------------------------------
    def _send(self, worker: int, message) -> None:
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as error:
            raise SessionError(
                f"sharded backend worker {worker} died "
                f"(request pipe closed: {error}); the session must be reopened"
            ) from error

    def _enqueue(self, worker: int, message) -> None:
        """Buffer an ordered submessage; flush once the batch is full."""
        outbox = self._outbox[worker]
        outbox.append(message)
        if len(outbox) >= self.FLUSH_BATCH:
            self._flush(worker)

    def _flush(self, worker: int) -> None:
        outbox = self._outbox[worker]
        if outbox:
            self._outbox[worker] = []
            self._flushed_high[worker] = self._buffered_high[worker]
            self._send(worker, (MSG_BATCH, outbox))

    def _recv(self, worker: int):
        conn = self._conns[worker]
        process = self._procs[worker]
        while not conn.poll(0.05):
            if not process.is_alive():
                raise SessionError(
                    f"sharded backend worker {worker} died unexpectedly "
                    f"(exit code {process.exitcode}); the session must be "
                    "reopened"
                )
        try:
            return conn.recv()
        except (EOFError, OSError) as error:
            raise SessionError(
                f"sharded backend worker {worker} died mid-report "
                f"({error!r}); the session must be reopened"
            ) from error

    def _recv_report(self, entry: _Entry):
        worker = entry.worker
        inbox = self._inbox[worker]
        while not inbox:
            if entry.did > self._flushed_high[worker]:
                # The dispatch we are waiting on is still buffered.
                self._flush(worker)
            message = self._recv(worker)
            if message[0] != MSG_REPORT:
                raise SessionError(
                    "sharded backend protocol error: expected report "
                    f"batch, got {message[:2]!r}"
                )
            inbox.extend(message[1])
        report = inbox.popleft()
        tag = report[0]
        if tag == REPORT_ERR:
            raise SessionError(
                f"sharded backend worker {worker} failed executing "
                f"{entry.request.procedure}: {report[2]}"
            )
        if tag != REPORT_OK or report[1] != entry.did:
            raise SessionError(
                "sharded backend protocol error: expected report for "
                f"dispatch {entry.did}, got {report[:2]!r}"
            )
        return report

    # ------------------------------------------------------------------
    # Speculation and dispatch
    # ------------------------------------------------------------------
    def _speculate(self, request):
        """Predict the authoritative plan without touching any state.

        Only hits on a §6.3-eligible plan-memo entry are predictable (the
        memoized decision *is* what ``plan_initial`` will produce as long
        as the entry survives until fold time — and the fold verifies
        that).  Only
        single-partition plans whose lock set is exactly the home
        partition are dispatched: their execution cannot touch another
        shard, and their run-time monitor provably cannot abort the walk.
        """
        strategy = self._houdini
        if strategy is None:
            return None
        plan = strategy.houdini.plan_speculative(request)
        if plan is None:
            return None
        locked = plan.locked_partitions
        if (
            locked is None
            or len(locked.partitions) != 1
            or locked.partitions[0] != plan.base_partition
        ):
            return None
        return plan

    def _dispatch(self, entry: _Entry) -> None:
        if not self._started:
            self.start()
        worker = entry.worker
        entry.kind = _INFLIGHT
        self.stats["dispatched"] += 1
        self._outstanding[worker] += 1
        self._buffered_high[worker] = entry.did
        self._enqueue(
            worker,
            (
                SUB_DISPATCH,
                entry.did,
                entry.request,
                entry.spec.base_partition,
                entry.spec.locked_partitions,
                self._watermark,
            ),
        )

    def _admit(self, entry: _Entry) -> None:
        """Classify a freshly popped entry and dispatch it if possible."""
        plan = self._speculate(entry.request)
        if plan is None:
            entry.kind = _LOCAL
            self._barrier += 1
            return
        entry.spec = plan
        worker = self.worker_of(plan.base_partition)
        entry.worker = worker
        if (
            self._barrier
            or self._queued_total
            or self._outstanding[worker] >= self.MAX_PER_WORKER
        ):
            # Order constraints: a pending local execution bars every
            # later dispatch (it may change state the dispatch would
            # read), and dispatches must leave strictly in submission
            # order — in-flight dispatches always form a contiguous
            # prefix of the pipeline.  That prefix invariant is what
            # makes a write broadcast during a fold reach every worker
            # *before* any dispatch popped after it (both travel the same
            # ordered per-worker stream), and what lets a cascade treat
            # ``boundary`` as covering the whole in-flight set.
            entry.kind = _DEFERRED
            self._queued_total += 1
        else:
            self._dispatch(entry)

    def _release_deferred(self) -> None:
        """Dispatch deferred entries freed up by the fold that just ran.

        Walks the pipeline front to back and stops at the first entry it
        cannot dispatch (a local execution, or a worker at capacity) to
        preserve the contiguous-prefix invariant — see :meth:`_admit`.
        """
        if not self._queued_total:
            return
        for entry in self._pending:
            kind = entry.kind
            if kind == _INFLIGHT:
                continue
            if (
                kind == _LOCAL
                or self._outstanding[entry.worker] >= self.MAX_PER_WORKER
            ):
                break
            self._queued_total -= 1
            self._dispatch(entry)

    # ------------------------------------------------------------------
    # Folding results back into the simulated timeline
    # ------------------------------------------------------------------
    def _broadcast(self, ops) -> None:
        """Queue a write-effect stream for every worker that needs it.

        Ops are pre-filtered per shard (op index 2 is the partition id),
        so a worker whose shard the transaction never touched — the
        common case for a single-partition write — receives nothing.
        """
        if not ops or not self._started:
            return
        if self.num_workers == 1:
            self._enqueue(0, (SUB_EFFECTS, ops))
            return
        shard_ops: list[list | None] = [None] * self.num_workers
        for op in ops:
            worker = self.worker_of(op[2])
            if shard_ops[worker] is None:
                shard_ops[worker] = []
            shard_ops[worker].append(op)
        for worker, ops_for_worker in enumerate(shard_ops):
            if ops_for_worker is not None:
                self._enqueue(worker, (SUB_EFFECTS, ops_for_worker))

    def _execute_capturing(self, request):
        """Execute locally on the coordinator, returning (record, ops)."""
        sim = self.sim
        engine = _CapturingEngine(sim.coordinator.engine)
        record = sim.coordinator.execute_transaction(request, engine=engine)
        return record, engine.ops

    def execute_local(self, request: ProcedureRequest):
        """Coordinator-local execution used by the general event loop.

        Once workers exist, *every* transaction executed outside the fold
        pipeline must broadcast its writes to them, or their database
        copies would silently rot.
        """
        if not self._started:
            return self.sim.coordinator.execute_transaction(request)
        record, ops = self._execute_capturing(request)
        self._broadcast(ops)
        return record

    def _cascade(self, boundary: int, local_ops) -> None:
        """Unwind speculative state from ``boundary`` on and resync.

        Every in-flight dispatch (all have ``did >= boundary``: dispatch
        ids are assigned in submission order and folds run in submission
        order) executed against worker state that the triggering fold just
        invalidated, so all of them are discarded and re-dispatched.  The
        drain-until-ack consumes their stale reports; the pipe is FIFO, so
        every report a worker sent precedes its rollback ack.
        """
        self.stats["cascades"] += 1
        for worker in range(self.num_workers):
            # Still-buffered dispatches never reached the worker; their
            # entries are re-queued below, so just drop the messages.
            # Buffered write replays stay: they are authoritative state
            # from already-folded transactions, and no rolled-back
            # dispatch on this worker can have executed after them (a
            # dispatch is only ever flushed after every replay buffered
            # before it), so replay-then-rollback ordering is safe.
            outbox = self._outbox[worker]
            if outbox:
                self._outbox[worker] = [m for m in outbox if m[0] != SUB_DISPATCH]
                self._flush(worker)
            # Re-dispatches reuse the dids just discarded, so the flush
            # high-water marks must not claim to cover them anymore.
            self._buffered_high[worker] = -1
            self._flushed_high[worker] = -1
            self._send(worker, (MSG_ROLLBACK, boundary))
        for worker in range(self.num_workers):
            # Reports already received, and any still in the pipe before
            # the ack, all belong to discarded dispatches.
            self._inbox[worker].clear()
            while True:
                message = self._recv(worker)
                tag = message[0]
                if tag == MSG_ROLLBACK_ACK and message[1] == boundary:
                    break
                if tag != MSG_REPORT:
                    raise SessionError(
                        "sharded backend protocol error during rollback "
                        f"cascade: got {message[:2]!r}"
                    )
                for report in message[1]:
                    if report[0] == REPORT_ERR:
                        raise SessionError(
                            f"sharded backend worker {worker} failed "
                            f"during rollback cascade: {report[2]}"
                        )
        self._outstanding = [0] * self.num_workers
        for entry in self._pending:
            if entry.kind == _INFLIGHT:
                entry.kind = _DEFERRED
                self._queued_total += 1
        self._broadcast(local_ops)

    def _fold_dispatched(self, entry: _Entry):
        report = self._recv_report(entry)
        self._outstanding[entry.worker] -= 1
        sim = self.sim
        fold = _FoldEngine(self, entry, report)
        record = sim.coordinator.execute_transaction(entry.request, engine=fold)
        if fold.accepted:
            self.stats["accepted"] += 1
            if len(record.attempts) == 1:
                # Clean speculative success — the overwhelmingly common
                # case: nothing to unwind, workers may GC up to here.
                self._watermark = entry.did
            else:
                # Attempt 0 stands, but local restart attempts changed
                # state behind every in-flight dispatch.
                self._cascade(entry.did + 1, fold.local_ops)
                self._watermark = entry.did
        else:
            # Speculation rejected: unwind the worker's execution of this
            # very dispatch too, then resync with the authoritative ops.
            self.stats["rejected"] += 1
            self._cascade(entry.did, fold.local_ops)
        return record

    def _fold_one(self) -> None:
        sim = self.sim
        entry = self._pending.pop(0)
        # Folds replay in submission order, so pinning the transaction clock
        # to the entry's pop time reproduces the inline backend's clock
        # exactly (inline executes at pop).
        sim._txn_clock = entry.pop_time
        if entry.kind == _INFLIGHT:
            record = self._fold_dispatched(entry)
        else:
            if entry.kind == _DEFERRED:
                self._queued_total -= 1
            else:
                self._barrier -= 1
            self.stats["local"] += 1
            if self._started:
                record, ops = self._execute_capturing(entry.request)
                self._broadcast(ops)
            else:
                record = sim.coordinator.execute_transaction(entry.request)
        end = sim._replay_timing(
            record, entry.pop_time, sim._partition_free, sim._breakdown_acc
        )
        sim._latencies.append(end - entry.pop_time)
        sim._account_record(record, sim._counters)
        heappush(
            sim._events,
            (
                end + sim.config.client_think_time_ms,
                CLIENT_READY,
                entry.client_id,
                (end, record.committed),
            ),
        )
        self._release_deferred()

    # ------------------------------------------------------------------
    # The pipelined fast loop
    # ------------------------------------------------------------------
    def run_fast(self, limit: float = _INF) -> None:
        """Fast-path event loop with dispatch/fold pipelining.

        Replicates :meth:`ClusterSimulator._run_fast` exactly, except that
        between popping an arrival and folding its result, later arrivals
        may be popped and dispatched.  The pop-ahead horizon is
        ``planning_ms + setup_ms``: an arrival is only popped early if its
        event time still precedes the oldest unfolded transaction's
        earliest possible completion, which keeps the pop sequence
        identical to the inline interleaving of arrivals and completions
        (every transaction's simulated duration is at least the horizon).
        """
        sim = self.sim
        events = sim._events
        completions = sim._completions
        parked = sim._parked
        num_nodes = sim._num_nodes
        budget = sim._budget
        submitted = sim._submitted
        now = sim._now
        scheduler_submit = sim.scheduler.submit
        scheduler_pop = sim.scheduler.pop
        record_zero_wait = sim.scheduler.record_zero_wait
        next_request = sim.generator.next_request
        horizon = sim.cost_model.planning_ms + sim.cost_model.setup_ms
        pending = self._pending
        processed = 0
        while True:
            if (
                events
                and processed < limit
                and (
                    not pending
                    or (
                        len(pending) < self.MAX_PIPELINE
                        and events[0][0] < pending[0].pop_time + horizon
                    )
                )
            ):
                processed += 1
                now, _, client_id, payload = heappop(events)
                if payload is not None:
                    completions.append(payload)
                if submitted >= budget:
                    parked.append((now, client_id))
                    continue
                submitted += 1
                raw = next_request()
                request = ProcedureRequest(
                    raw.procedure, raw.parameters, client_id, client_id % num_nodes
                )
                pend = scheduler_submit(request)
                pend.submit_time_ms = now
                pend = scheduler_pop()
                record_zero_wait(pend.request.procedure)
                entry = _Entry(now, pend.request, pend.request.client_id, self._seq)
                self._seq += 1
                self._admit(entry)
                pending.append(entry)
            elif pending:
                self._fold_one()
            else:
                break
        # A step/limit boundary must not leave unfolded work behind: the
        # caller may inspect metrics (or switch to the general loop) next.
        while pending:
            self._fold_one()
        sim._submitted = submitted
        sim._now = now


class _CapturingEngine:
    """Engine proxy that records every attempt's write effects."""

    __slots__ = ("engine", "ops")

    def __init__(self, engine) -> None:
        self.engine = engine
        self.ops: list[tuple] = []

    def execute_attempt(self, request, **kwargs):
        log = CapturingUndoLog(enabled=kwargs.get("undo_enabled", True))
        result = self.engine.execute_attempt(request, undo_log=log, **kwargs)
        self.ops.extend(log.effects)
        return result


class _ValidatingContext:
    """Minimal stand-in for :class:`TransactionContext` during a fold walk.

    The run-time monitor only reads ``base_partition`` and
    ``locked_partitions`` and calls ``disable_undo_logging`` /
    ``mark_partition_finished``; this records those calls so the fold can
    derive what the monitor *would have done* to a live context.
    """

    __slots__ = ("base_partition", "locked_partitions", "finished")

    def __init__(self, base_partition, locked_partitions) -> None:
        self.base_partition = base_partition
        self.locked_partitions = locked_partitions
        self.finished: set[int] = set()

    def disable_undo_logging(self) -> None:
        pass  # the monitor's own stats record the disable point

    def mark_partition_finished(self, partition_id) -> None:
        self.finished.add(partition_id)


class _FoldEngine:
    """Engine proxy the coordinator hands to ``execute_transaction`` when
    folding a dispatched result.

    The first ``execute_attempt`` call tries to *accept* the worker's
    speculative execution: verify the authoritative plan matches the
    dispatched one, replay the plan's monitor over the worker's invocation
    stream, apply the worker's writes to the coordinator database, and
    return a (possibly patched) copy of the worker's result.  Any
    divergence falls back to local execution — with a fresh monitor clone
    when the original already consumed part of the stream.  Restart
    attempts always execute locally.
    """

    __slots__ = ("backend", "entry", "report", "local_ops", "accepted", "_first", "_walked", "_runtime")

    def __init__(self, backend: ShardedBackend, entry: _Entry, report) -> None:
        self.backend = backend
        self.entry = entry
        self.report = report
        self.local_ops: list[tuple] = []
        self.accepted = False
        self._first = True
        self._walked = False
        self._runtime = None

    def execute_attempt(self, request, **kwargs):
        if self._first:
            self._first = False
            result = self._try_accept(kwargs)
            if result is not None:
                self.accepted = True
                return result
            if self._walked:
                kwargs = dict(kwargs)
                kwargs["listeners"] = self._swap_runtime(
                    kwargs.get("listeners", ()), kwargs.get("undo_enabled", True)
                )
        log = CapturingUndoLog(enabled=kwargs.get("undo_enabled", True))
        result = self.backend.sim.coordinator.engine.execute_attempt(
            request, undo_log=log, **kwargs
        )
        self.local_ops.extend(log.effects)
        return result

    # ------------------------------------------------------------------
    def _try_accept(self, kwargs):
        spec = self.entry.spec
        base = kwargs.get("base_partition", 0)
        locked = kwargs.get("locked_partitions")
        undo_enabled = kwargs.get("undo_enabled", True)
        if (
            base != spec.base_partition
            or locked != spec.locked_partitions
            or undo_enabled != spec.undo_logging
        ):
            # The authoritative plan diverged from the speculation (cache
            # entry evicted/replaced between pop and fold).  The monitor
            # has not been walked yet, so the local re-execution can use
            # the original listeners untouched.
            return None
        _tag, _did, result, effects, op_counts = self.report
        listeners = kwargs.get("listeners", ())
        context = _ValidatingContext(base, locked)
        runtime = None
        if listeners:
            # Replay the run-time monitor (OP3/OP4 bookkeeping + model
            # learning) over the worker's invocation stream, exactly as it
            # would have observed a local execution.
            self._walked = True
            runtime = listeners[0]
            self._runtime = runtime
            try:
                for invocation in result.invocations:
                    for listener in listeners:
                        listener(context, invocation)
            except MispredictionAbort:
                # The monitor would have aborted the attempt mid-stream
                # (cannot happen for a singleton lock set, but kept as a
                # defensive rejection rather than an assertion).
                return None
        disabled_from = None
        if not undo_enabled:
            disabled_from = 0
        elif runtime is not None and runtime.stats.undo_disabled_at_query is not None:
            disabled_from = runtime.stats.undo_disabled_at_query
        if disabled_from is not None and not result.committed:
            # Inline, the attempt would have run (at least partly) without
            # undo logging, and it did not commit: the inline engine's
            # behaviour then differs from the worker's always-logged run
            # (lock escalation instead of abort, or an unrecoverable
            # rollback).  Reject and reproduce it locally.
            return None
        # Accepted: the worker executed exactly what the inline engine
        # would have.  Apply its writes and patch the undo accounting to
        # what an OP3-disabled execution would have reported.
        apply_ops(self.backend.sim.database, effects)
        patch = {}
        if disabled_from is not None:
            written = op_counts[disabled_from - 1] if disabled_from >= 1 else 0
            patch["undo_records_written"] = written
            patch["undo_records_skipped"] = len(effects) - written
        finished = frozenset(context.finished)
        if finished != result.finished_partitions:
            patch["finished_partitions"] = finished
        if patch:
            result = dataclasses.replace(result, **patch)
        return result

    def _swap_runtime(self, listeners, undo_enabled):
        """Replace a partially-walked monitor with a fresh clone."""
        runtime = self._runtime
        clone = HoudiniRuntime(
            runtime.model,
            runtime.estimate,
            runtime.config,
            predicted_single_partition=runtime.predicted_single_partition,
            undo_initially_disabled=not undo_enabled,
            learn=runtime.learn,
            footprint=runtime.footprint,
            allow_early_prepare=runtime.allow_early_prepare,
            never_finish=runtime.never_finish,
        )
        self.backend._houdini.replace_current_runtime(clone)
        return tuple(
            clone if listener is runtime else listener for listener in listeners
        )
