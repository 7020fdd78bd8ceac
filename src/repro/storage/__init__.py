"""Storage subsystem: in-memory row heaps, indexes, undo logging.

This package is the main-memory storage substrate of the reproduction.  Data
is real (dict rows, unique and non-unique hash indexes, per-partition heaps)
and the undo log performs real rollbacks, which lets the test suite verify
the semantics that the paper's OP3 optimization relies on.
"""

from .heap import RowHeap
from .indexes import HashIndex, UniqueIndex
from .partition_store import Database, PartitionStore
from .undo_log import UndoAction, UndoLog, UndoRecord

__all__ = [
    "RowHeap",
    "HashIndex",
    "UniqueIndex",
    "PartitionStore",
    "Database",
    "UndoLog",
    "UndoRecord",
    "UndoAction",
]
