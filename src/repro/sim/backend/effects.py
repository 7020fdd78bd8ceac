"""Write-effect capture and replay for the sharded backend.

A transaction executed on a worker process mutates only that worker's
copy of the database; the coordinator (and every other worker) must be
able to replay exactly the same physical writes without re-running the
transaction.  :class:`CapturingUndoLog` makes the statement executor
record one replayable *op* per physical write, and :func:`apply_ops`
replays such a stream against any database copy.

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

from ...storage.undo_log import UndoLog, UndoRecord


class CapturingUndoLog(UndoLog):
    """An undo log that additionally captures replayable write effects.

    Two extensions over the base class:

    * :attr:`effects` is a live list the statement executor appends one op
      to per physical write (the write bodies of :mod:`repro.engine.executor`) —
      including the *inverse* ops :meth:`UndoLog.rollback` appends, so after an
      aborted attempt the stream still replays to the attempt's net effect
      (zero writes, but with the same transient row-id allocations);
    * :attr:`held_records` preserves the undo records past commit:
      :meth:`clear` moves them aside instead of dropping them, so a worker
      can later unwind an already-committed speculative attempt when the
      coordinator's fold rejects it (or an earlier transaction's outcome
      invalidates it).
    """

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled=enabled)
        self.effects: list[tuple] = []
        self.held_records: list[UndoRecord] = []

    def clear(self) -> None:
        # Commit path: keep the records so the attempt stays unwindable.
        self.held_records = self._records
        self._records = []
        self._skipped = 0


def apply_ops(database, ops, only_partitions=None) -> None:
    """Replay an effect stream against ``database``.

    ``only_partitions`` restricts replay to a shard (workers ignore writes
    to partitions they do not own); the coordinator replays unfiltered.
    """
    for op in ops:
        partition_id = op[2]
        if only_partitions is not None and partition_id not in only_partitions:
            continue
        heap = database.partition(partition_id).heap(op[1])
        tag = op[0]
        if tag == "u":
            heap.update(op[3], op[4], validate=False, capture_before=False)
        elif tag == "i":
            heap.insert_raw(dict(op[4]), op[3])
        else:  # "d"
            heap.delete(op[3])
