"""Sharded execution backend: the attempt executor behind worker processes.

The discrete-event core — clock, scheduler, gates, client model, planning,
the retry loop and every metric — is the inline code, unchanged: the
simulator's one execute site calls :meth:`ShardedBackend.execute`, which is
``coordinator.execute_transaction(request, engine=backend)``.  What moves
off the coordinator is the *functional* execution of single attempts.  The
partitions are sharded across ``num_workers`` forked OS processes, and for
each attempt, after the strategy has made its authoritative plan:

1. **dispatch by lock set** — a first attempt whose lock set is exactly its
   base partition cannot touch another shard, so it is sent to the worker
   owning that partition and the coordinator blocks on the report; every
   other attempt (and every restart) runs on the coordinator's own engine;
2. **replay** — the attempt's listeners (Houdini's run-time monitor: OP3
   bookkeeping and model learning) walk the worker's invocation stream
   exactly as they would have observed a local execution;
3. **accept** — the worker's writes are applied to the coordinator database
   and its result is the attempt's (undo accounting patched to what an
   OP3-disabled run reports); **or repeat locally** in the one case where an
   inline run differs from the worker's always-logged one: undo logging was
   off (from the plan, or turned off by the monitor) and the attempt did not
   commit — inline escalates locks or cannot roll back, the worker rolled
   back.  The worker's own rollback already restored its shard, so nothing
   is unwound: the monitor is swapped for an unwalked one and the attempt
   runs on the coordinator.

Writes of coordinator-run attempts are buffered per owning worker and ride
on that worker's next dispatch, so each worker's shard tracks the
coordinator's database.  A worker-run attempt writes only its base
partition — which its worker owns — so no worker needs another's writes.

Determinism contract: simulated results are byte-identical to the inline
backend under the same seed, for every loop shape (fast, gated, tenancy,
open loop, out-of-loop submits), because nothing but *where an attempt's
statements execute* differs.  Workers never see the clock, the RNG or a
model; their only product is an :class:`~repro.engine.engine.AttemptResult`
plus a replayable write-effect stream.  The backend is a determinism and
fault-handling harness, not an accelerator: every dispatch is a synchronous
round trip, and the wall-clock rate is below inline by design.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

from ...errors import SessionError
from ...houdini.runtime import HoudiniRuntime
from .effects import CapturingUndoLog, apply_ops
from .protocol import MSG_DISPATCH, MSG_EFFECTS, MSG_QUIT, REPORT_OK
from .worker import worker_main


class _ReplayContext:
    """Stand-in for :class:`TransactionContext` while the run-time monitor
    replays a worker's invocation stream.

    With only the base partition locked the monitor reads these two fields
    and may call ``disable_undo_logging`` (its own stats record where).  It
    never calls ``mark_partition_finished``:
    ``HoudiniRuntime._compile_finish_candidates`` never offers the base
    partition, so OP4 has nothing to declare finished — and therefore
    nothing for a later query to trip on (``MispredictionAbort``).
    """

    __slots__ = ("base_partition", "locked_partitions")

    def __init__(self, base_partition, locked_partitions) -> None:
        self.base_partition = base_partition
        self.locked_partitions = locked_partitions

    def disable_undo_logging(self) -> None:
        pass


class ShardedBackend:
    """Coordinator-side attempt executor over the worker pool."""

    #: Buffered write ops per worker beyond which they are sent on their own
    #: instead of waiting for that worker's next dispatch (bounds coordinator
    #: memory when a shard sees no single-partition work for a long time).
    MAX_BUFFERED_OPS = 512

    def __init__(self, sim, num_workers: int) -> None:
        self.sim = sim
        self.num_workers = max(1, min(int(num_workers), sim._num_partitions))
        self._procs: list = []
        self._conns: list = []
        self._started = False
        #: Writes of coordinator-run attempts each worker has yet to see.
        self._buffers: list[list] = [[] for _ in range(self.num_workers)]
        #: Whether the current transaction already ran an attempt.
        self._restart = False
        #: Attempt counters (observability only, not part of any metric).
        self.stats = {"dispatched": 0, "accepted": 0, "rejected": 0, "local": 0}

    def worker_of(self, partition_id: int) -> int:
        """Contiguous range sharding: partition → owning worker."""
        return partition_id * self.num_workers // self.sim._num_partitions

    # ------------------------------------------------------------------
    # Worker pool lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the worker pool (lazily, at the first dispatch).

        A dispatch happens between attempts, so the coordinator database is
        a consistent snapshot for the copy-on-write fork.
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
                args=(child_conn, sim.coordinator.engine.catalog, sim.database),
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
        self._buffers = [[] for _ in range(self.num_workers)]

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

    # ------------------------------------------------------------------
    # The attempt executor
    # ------------------------------------------------------------------
    def execute(self, request):
        """The simulator's execute site under this backend."""
        self._restart = False
        return self.sim.coordinator.execute_transaction(request, engine=self)

    def execute_attempt(
        self,
        request,
        *,
        txn_id=0,
        base_partition=0,
        locked_partitions=None,
        undo_enabled=True,
        listeners=(),
    ):
        """Run one attempt where its plan says (see the module docstring)."""
        first, self._restart = not self._restart, True
        if (
            first
            and locked_partitions is not None
            and locked_partitions.partitions == (base_partition,)
        ):
            result = self._run_on_worker(
                request, base_partition, locked_partitions, undo_enabled, listeners
            )
            if result is not None:
                return result
            if listeners:
                listeners = (self._unwalked(listeners[0], undo_enabled),)
        self.stats["local"] += 1
        log = CapturingUndoLog(enabled=undo_enabled) if self._started else None
        result = self.sim.coordinator.engine.execute_attempt(
            request,
            txn_id=txn_id,
            base_partition=base_partition,
            locked_partitions=locked_partitions,
            undo_enabled=undo_enabled,
            listeners=listeners,
            undo_log=log,
        )
        if log is not None:
            self._buffer(log.effects)
        return result

    def _run_on_worker(self, request, base, locked, undo_enabled, listeners):
        """Dispatch, replay, accept — or ``None`` to repeat the attempt locally."""
        if not self._started:
            self.start()
        self.stats["dispatched"] += 1
        worker = self.worker_of(base)
        ops, self._buffers[worker] = self._buffers[worker], []
        self._send(worker, (MSG_DISPATCH, request, base, locked, ops))
        report = self._recv(worker)
        if report[0] != REPORT_OK:  # REPORT_ERR: the worker has exited
            raise SessionError(
                f"sharded backend worker {worker} failed executing "
                f"{request.procedure}: {report[1]}"
            )
        _, result, effects, op_counts = report
        context = _ReplayContext(base, locked)
        for invocation in result.invocations:
            for listener in listeners:
                listener(context, invocation)
        # From which query on an inline run would have skipped undo records.
        disabled_from = None
        if not undo_enabled:
            disabled_from = 0
        elif listeners:
            disabled_from = listeners[0].stats.undo_disabled_at_query
        if disabled_from is not None:
            if not result.committed:
                self.stats["rejected"] += 1
                return None
            written = op_counts[disabled_from - 1] if disabled_from else 0
            result = dataclasses.replace(
                result,
                undo_records_written=written,
                undo_records_skipped=len(effects) - written,
            )
        apply_ops(self.sim.database, effects)
        self.stats["accepted"] += 1
        return result

    def _unwalked(self, runtime, undo_enabled):
        """Replace the monitor a rejected replay walked with a fresh one."""
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
        self.sim.strategy.replace_current_runtime(clone)
        return clone

    def _buffer(self, ops) -> None:
        """Queue a coordinator-run attempt's writes for the owning workers."""
        buffers = self._buffers
        for op in ops:
            buffers[self.worker_of(op[2])].append(op)
        for worker, buffered in enumerate(buffers):
            if len(buffered) > self.MAX_BUFFERED_OPS:
                buffers[worker] = []
                self._send(worker, (MSG_EFFECTS, buffered))
