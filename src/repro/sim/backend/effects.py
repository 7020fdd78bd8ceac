"""Write-effect capture and replay for the sharded backend.

An attempt executed on a worker mutates only that worker's copy of the
database, and one executed on the coordinator only the coordinator's; the
other side must be able to replay exactly the same physical writes without
re-running the attempt.  :class:`CapturingUndoLog` makes the statement
executor record one replayable *op* per physical write, and
:func:`apply_ops` replays such a stream against any database copy.

Ops are plain tuples so they pickle cheaply over the worker pipes:

* ``("i", table, partition, row_id, row)`` — insert ``row`` (the full
  post-insert image, including defaults) under a pre-assigned ``row_id``;
* ``("u", table, partition, row_id, assignments)`` — apply the already
  resolved column assignments;
* ``("d", table, partition, row_id)`` — delete the row.

Replaying inserts through :meth:`RowHeap.insert_raw` keeps every copy's
``_next_row_id`` counter in sync with the copy that executed the
transaction, so later organically-executed inserts allocate identical
row ids everywhere.
"""

from __future__ import annotations

from ...storage.undo_log import UndoLog


class CapturingUndoLog(UndoLog):
    """An undo log that additionally captures replayable write effects.

    :attr:`effects` is a live list the statement executor appends one op to
    per physical write (the write bodies of :mod:`repro.engine.executor`) —
    including the *inverse* ops :meth:`UndoLog.rollback` appends, so after
    an aborted attempt the stream still replays to the attempt's net effect
    (zero writes, but with the same transient row-id allocations).
    """

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled=enabled)
        self.effects: list[tuple] = []


def apply_ops(database, ops) -> None:
    """Replay an effect stream against ``database``."""
    for op in ops:
        heap = database.partition(op[2]).heap(op[1])
        tag = op[0]
        if tag == "u":
            heap.update(op[3], op[4], validate=False, capture_before=False)
        elif tag == "i":
            heap.insert_raw(dict(op[4]), op[3])
        else:  # "d"
            heap.delete(op[3])
