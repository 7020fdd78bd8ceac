"""Per-partition data storage.

Each partition in the cluster owns a :class:`PartitionStore`: one
:class:`~repro.storage.heap.RowHeap` per table.  Replicated tables get a heap
in every partition; partitioned tables only store the rows whose
partitioning-column value hashes to this partition (the loader enforces
this).
"""

from __future__ import annotations

from typing import Any, Iterator

from ..catalog.schema import Schema
from ..errors import StorageError, UnknownTableError
from ..types import PartitionId
from .heap import RowHeap


class PartitionStore:
    """All table heaps belonging to one partition."""

    def __init__(self, partition_id: PartitionId, schema: Schema) -> None:
        self.partition_id = partition_id
        self.schema = schema
        self._heaps: dict[str, RowHeap] = {
            table.name: RowHeap(table) for table in schema.tables()
        }

    def heap(self, table_name: str) -> RowHeap:
        try:
            return self._heaps[table_name]
        except KeyError:
            raise UnknownTableError(table_name) from None

    def table_names(self) -> Iterator[str]:
        return iter(self._heaps)

    def row_count(self, table_name: str | None = None) -> int:
        """Rows stored on this partition, for one table or in total."""
        if table_name is not None:
            return len(self.heap(table_name))
        return sum(len(heap) for heap in self._heaps.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PartitionStore partition={self.partition_id} rows={self.row_count()}>"


class Database:
    """The full cluster's data: one :class:`PartitionStore` per partition.

    The database also offers loader helpers that route rows to their home
    partitions (and to every partition for replicated tables).
    """

    def __init__(self, schema: Schema, num_partitions: int) -> None:
        if num_partitions < 1:
            raise StorageError("database needs at least one partition")
        self.schema = schema
        self.num_partitions = num_partitions
        self._partitions = [PartitionStore(p, schema) for p in range(num_partitions)]

    def partition(self, partition_id: PartitionId) -> PartitionStore:
        if not 0 <= partition_id < self.num_partitions:
            raise StorageError(f"partition {partition_id} out of range")
        return self._partitions[partition_id]

    def partitions(self) -> Iterator[PartitionStore]:
        return iter(self._partitions)

    # ------------------------------------------------------------------
    # Loader helpers
    # ------------------------------------------------------------------
    def load_row(self, table_name: str, values: dict[str, Any], estimator) -> None:
        """Insert one row at its home partition (all partitions if replicated).

        ``estimator`` is a :class:`~repro.catalog.partitioning.PartitionEstimator`
        for the target cluster configuration.
        """
        table = self.schema.table(table_name)
        # Validated once here; each heap stores its own (pre-validated) copy.
        row = table.new_row(values)
        if table.replicated:
            for store in self._partitions:
                store.heap(table_name).insert(dict(row), validate=False)
            return
        home = estimator.partition_for_row(table, row)
        self.partition(home).heap(table_name).insert(row, validate=False)

    def total_rows(self, table_name: str | None = None) -> int:
        return sum(store.row_count(table_name) for store in self._partitions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Database partitions={self.num_partitions} rows={self.total_rows()}>"
