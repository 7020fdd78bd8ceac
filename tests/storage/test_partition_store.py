"""Tests for per-partition stores and the cluster-wide database."""

import pytest

from repro.catalog import PartitionEstimator, PartitionScheme, Schema, Table, integer, string
from repro.errors import StorageError, UnknownTableError
from repro.storage import Database, PartitionStore


def make_schema():
    return Schema([
        Table(
            name="DATA",
            columns=[integer("ID"), string("NAME")],
            primary_key=["ID"],
            partition_column="ID",
        ),
        Table(
            name="LOOKUP",
            columns=[integer("CODE"), string("LABEL")],
            primary_key=["CODE"],
            replicated=True,
        ),
    ])


class TestPartitionStore:
    def test_heaps_created_for_every_table(self):
        store = PartitionStore(0, make_schema())
        assert sorted(store.table_names()) == ["DATA", "LOOKUP"]
        with pytest.raises(UnknownTableError):
            store.heap("NOPE")

    def test_row_count(self):
        store = PartitionStore(0, make_schema())
        store.heap("DATA").insert({"ID": 1, "NAME": "a"})
        store.heap("LOOKUP").insert({"CODE": 1, "LABEL": "x"})
        assert store.row_count("DATA") == 1
        assert store.row_count() == 2


class TestDatabase:
    def test_partitioned_rows_route_to_home_partition(self):
        schema = make_schema()
        database = Database(schema, 4)
        estimator = PartitionEstimator(PartitionScheme(4))
        for i in range(8):
            database.load_row("DATA", {"ID": i, "NAME": f"n{i}"}, estimator)
        for partition in range(4):
            heap = database.partition(partition).heap("DATA")
            assert len(heap) == 2
            for row in heap.rows():
                assert row["ID"] % 4 == partition

    def test_replicated_rows_copied_everywhere(self):
        schema = make_schema()
        database = Database(schema, 3)
        estimator = PartitionEstimator(PartitionScheme(3))
        database.load_row("LOOKUP", {"CODE": 1, "LABEL": "x"}, estimator)
        assert database.total_rows("LOOKUP") == 3

    def test_partition_bounds_checked(self):
        database = Database(make_schema(), 2)
        with pytest.raises(StorageError):
            database.partition(5)
        with pytest.raises(StorageError):
            Database(make_schema(), 0)
