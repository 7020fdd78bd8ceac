"""Transient undo logging (OP3 substrate).

H-Store keeps a per-transaction, in-memory undo buffer that is discarded at
commit and replayed (in reverse) at abort.  The paper's OP3 optimization
disables this buffer for transactions that are predicted never to abort; the
cost of maintaining the buffer is what the optimization saves, and the danger
is that an abort after disabling it is unrecoverable.

The :class:`UndoLog` here is *real*: aborting a transaction rolls the
in-memory tables back to their previous state, and a rollback attempted while
logging is disabled raises :class:`~repro.errors.UnrecoverableError` so tests
can prove Houdini never triggers it.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple

from ..errors import UnrecoverableError


class UndoAction(Enum):
    """Kind of change recorded in an undo record."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class UndoRecord(NamedTuple):
    """A single logical undo record.

    ``before_image`` is the full previous row for UPDATE/DELETE and ``None``
    for INSERT (undoing an insert simply deletes the row again).  A named
    tuple: one is built per write, and it costs a fifth of a frozen
    dataclass to build.
    """

    action: UndoAction
    table: str
    partition_id: int
    row_id: int
    before_image: dict[str, Any] | None = None


class UndoLog:
    """Per-transaction undo buffer.

    The log may be *disabled* (OP3): records are then not retained, the
    counter of skipped records is kept for metrics, and any later attempt to
    roll back raises :class:`UnrecoverableError`.
    """

    #: Optional write-effect sink.  When a subclass sets this to a list, the
    #: statement executor appends one replayable op per physical write —
    #: independent of whether undo records are being retained — and
    #: :meth:`rollback` one inverse op per record it undoes.  ``None`` (the
    #: default) keeps the hot write path free of any capture cost.
    effects: list | None = None

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._records: list[UndoRecord] = []
        self._skipped = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def disable(self) -> None:
        """Stop recording undo information (the OP3 optimization)."""
        self._enabled = False

    def enable(self) -> None:
        self._enabled = True

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records_written(self) -> int:
        """Number of records actually retained (undo-log maintenance cost)."""
        return len(self._records)

    @property
    def records_skipped(self) -> int:
        """Number of records that OP3 allowed the engine to skip."""
        return self._skipped

    # ------------------------------------------------------------------
    def record_insert(self, table: str, partition_id: int, row_id: int) -> None:
        if not self._enabled:
            self._skipped += 1
            return
        self._records.append(UndoRecord(UndoAction.INSERT, table, partition_id, row_id))

    def note_skipped(self) -> None:
        """Count a record the caller proved unnecessary to even build.

        The executor uses this when undo logging is disabled to skip the
        before-image copy entirely while keeping the skipped-records metric
        (which drives OP3 accounting and lock-escalation safety) exact.
        """
        self._skipped += 1

    def record_update(
        self, table: str, partition_id: int, row_id: int, before_image: dict[str, Any]
    ) -> None:
        """Record a row's previous image.  The log takes ownership of
        ``before_image`` — callers must pass a dict they will not mutate
        afterwards (the row heap hands back a fresh copy)."""
        if not self._enabled:
            self._skipped += 1
            return
        self._records.append(
            UndoRecord(UndoAction.UPDATE, table, partition_id, row_id, before_image)
        )

    def record_delete(
        self, table: str, partition_id: int, row_id: int, before_image: dict[str, Any]
    ) -> None:
        """Record a deleted row.  Takes ownership of ``before_image`` (the
        heap no longer references the popped row dict)."""
        if not self._enabled:
            self._skipped += 1
            return
        self._records.append(
            UndoRecord(UndoAction.DELETE, table, partition_id, row_id, before_image)
        )

    # ------------------------------------------------------------------
    def rollback(self, store_resolver) -> int:
        """Undo every recorded change, newest first.

        ``store_resolver(partition_id)`` must return the
        :class:`~repro.storage.partition_store.PartitionStore` owning the
        partition.  Returns the number of records undone.

        Raises
        ------
        UnrecoverableError
            If changes were made while the log was disabled — the situation
            the paper describes as requiring the node to halt.
        """
        if self._skipped:
            raise UnrecoverableError(
                f"abort requested but {self._skipped} changes were made without undo logging"
            )
        # A capturing log also records the inverse writes, so its effect
        # stream replays to the attempt's net effect (zero writes, but with
        # the same transient row-id allocations).
        effects = self.effects
        for action, table, partition_id, row_id, image in reversed(self._records):
            heap = store_resolver(partition_id).heap(table)
            if action is UndoAction.INSERT:
                heap.delete(row_id)
                op = ("d", table, partition_id, row_id)
            elif action is UndoAction.UPDATE:
                # The image is a full row the heap itself produced: nothing
                # to validate, and only indexes whose key moved are re-keyed.
                heap.update(row_id, image, validate=False, capture_before=False)
                op = ("u", table, partition_id, row_id, image)
            else:  # DELETE
                heap.insert_raw(image, row_id)
                op = ("i", table, partition_id, row_id, image)
            if effects is not None:
                effects.append(op)
        undone = len(self._records)
        self._records.clear()
        return undone

    def clear(self) -> None:
        """Discard the buffer (what commit does)."""
        self._records.clear()
        self._skipped = 0
