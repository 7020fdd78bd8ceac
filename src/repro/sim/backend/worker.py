"""Worker-process entry point for the sharded execution backend.

A worker is a *pure executor*: it owns a copy-on-write fork of the whole
database, is authoritative only for the partitions of its shard, and runs
one dispatched attempt at a time with no clock, no RNG, no strategy state
and no simulated-time accounting — all of that stays on the coordinator
(message shapes: :mod:`repro.sim.backend.protocol`).

An attempt always runs with undo logging on, under exactly the lock set the
coordinator's plan names, and is never taken back: the coordinator either
accepts the report as the attempt, or — in the one case an inline attempt
would have run differently — repeats it locally after the worker's own
rollback already left the shard as the attempt found it.  The report's
``op_counts`` is the cumulative effect count after each query, from which
the coordinator derives how many undo records an OP3-disabled inline run
would have written.
"""

from __future__ import annotations

from ...engine.engine import ExecutionEngine
from .effects import CapturingUndoLog, apply_ops
from .protocol import MSG_DISPATCH, MSG_EFFECTS, REPORT_ERR, REPORT_OK


def worker_main(conn, catalog, database) -> None:
    """Serve dispatches until told to quit or the pipe closes."""
    engine = ExecutionEngine(catalog, database)
    try:
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == MSG_EFFECTS:
                apply_ops(database, message[1])
            elif tag == MSG_DISPATCH:
                _, request, base, locked, ops = message
                log = CapturingUndoLog(enabled=True)
                effects = log.effects
                op_counts: list[int] = []
                try:
                    apply_ops(database, ops)
                    result = engine.execute_attempt(
                        request,
                        base_partition=base,
                        locked_partitions=locked,
                        undo_enabled=True,
                        listeners=(lambda _c, _i: op_counts.append(len(effects)),),
                        undo_log=log,
                    )
                except Exception as error:  # noqa: BLE001
                    conn.send((REPORT_ERR, f"{type(error).__name__}: {error}"))
                    return
                conn.send((REPORT_OK, result, effects, op_counts))
            else:  # MSG_QUIT, or an unknown tag: exit rather than wedge
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return
