"""Per-partition data storage.

Each partition in the cluster owns a :class:`PartitionStore`: one
:class:`~repro.storage.heap.RowHeap` per table.  Replicated tables get a heap
in every partition; partitioned tables only store the rows whose
partitioning-column value hashes to this partition (the loader enforces
this).
"""

from __future__ import annotations

from typing import Any, Iterator

from ..catalog.partitioning import stable_hash
from ..catalog.schema import Schema
from ..catalog.table import Table
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

    The database also offers the loader helper that routes rows to their home
    partitions (and to every partition for replicated tables).
    """

    def __init__(self, schema: Schema, num_partitions: int) -> None:
        if num_partitions < 1:
            raise StorageError("database needs at least one partition")
        self.schema = schema
        self.num_partitions = num_partitions
        self._partitions = [PartitionStore(p, schema) for p in range(num_partitions)]
        #: table name -> ``(table, heaps in partition order, replicated,
        #: partition column)``, built by the table's first :meth:`load_row`.
        self._load_plans: dict[str, tuple[Table, tuple[RowHeap, ...], bool, str | None]] = {}

    def partition(self, partition_id: PartitionId) -> PartitionStore:
        if not 0 <= partition_id < self.num_partitions:
            raise StorageError(f"partition {partition_id} out of range")
        return self._partitions[partition_id]

    def partitions(self) -> Iterator[PartitionStore]:
        return iter(self._partitions)

    # ------------------------------------------------------------------
    # Loader helpers
    # ------------------------------------------------------------------
    def load_row(self, table_name: str, values: dict[str, Any]) -> None:
        """Insert one row at its home partition (all partitions if replicated).

        The table's load plan — its :class:`Table`, its heap on every
        partition, whether it is replicated and its partitioning column — is
        built on the table's first load and kept.  ``Table.new_row``
        validates the row once; the home partition is
        ``stable_hash(value) % num_partitions`` of the partitioning column
        (partition 0 for a table without one), and the heap stores the row
        without validating it again.  Each heap still checks every unique
        index, so a duplicate key raises there; a replicated row is copied
        into one dict per partition.
        """
        plan = self._load_plans.get(table_name)
        if plan is None:
            table = self.schema.table(table_name)
            plan = self._load_plans[table_name] = (
                table,
                tuple(store.heap(table_name) for store in self._partitions),
                table.replicated,
                table.partition_column,
            )
        table, heaps, replicated, column = plan
        row = table.new_row(values)
        if replicated:
            for heap in heaps:
                heap.insert(dict(row), validate=False)
        elif column is None:
            heaps[0].insert(row, validate=False)
        else:
            value = row[column]
            # stable_hash(int) is the int itself.
            home = (value if type(value) is int else stable_hash(value)) % self.num_partitions
            heaps[home].insert(row, validate=False)

    def total_rows(self, table_name: str | None = None) -> int:
        return sum(store.row_count(table_name) for store in self._partitions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Database partitions={self.num_partitions} rows={self.total_rows()}>"
