"""Tests for per-partition stores and the cluster-wide database."""

import pytest

from repro.benchmarks import get_benchmark
from repro.catalog import Schema, Table, integer, string
from repro.catalog.column import ColumnType
from repro.catalog.partitioning import stable_hash
from repro.errors import DuplicateKeyError, StorageError, UnknownTableError
from repro.storage import Database, PartitionStore

BENCHMARKS = ("tatp", "tpcc", "smallbank", "auctionmark")
PARTITIONS = 4
#: A valid value per column type.
SAMPLE = {
    ColumnType.INTEGER: 6, ColumnType.BIGINT: 2**40, ColumnType.TIMESTAMP: 1_000,
    ColumnType.FLOAT: 2.5, ColumnType.STRING: "s", ColumnType.BOOLEAN: True,
}


def make_schema():
    return Schema([
        Table(
            name="DATA",
            columns=[integer("ID"), string("NAME")],
            primary_key=["ID"],
            partition_column="ID",
        ),
        Table(
            name="KEYED",
            columns=[string("NAME"), integer("N", default=3)],
            primary_key=["NAME"],
            partition_column="NAME",
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
        assert sorted(store.table_names()) == ["DATA", "KEYED", "LOOKUP"]
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
        for i in range(8):
            database.load_row("DATA", {"ID": i, "NAME": f"n{i}"})
        for partition in range(4):
            heap = database.partition(partition).heap("DATA")
            assert len(heap) == 2
            for row in heap.rows():
                assert row["ID"] % 4 == partition

    def test_a_string_key_routes_by_its_stable_hash(self):
        database = Database(make_schema(), 4)
        names = [f"name-{i}" for i in range(12)]
        for name in names:
            database.load_row("KEYED", {"NAME": name})
        for name in names:
            home = stable_hash(name) % 4
            assert database.partition(home).heap("KEYED").pk_rows((name,)) == [
                {"NAME": name, "N": 3}
            ]
        assert database.total_rows("KEYED") == len(names)

    def test_replicated_rows_copied_everywhere(self):
        schema = make_schema()
        database = Database(schema, 3)
        database.load_row("LOOKUP", {"CODE": 1, "LABEL": "x"})
        assert database.total_rows("LOOKUP") == 3

    def test_a_duplicate_key_is_refused_by_the_heap(self):
        database = Database(make_schema(), 4)
        database.load_row("DATA", {"ID": 5, "NAME": "a"})
        with pytest.raises(DuplicateKeyError):
            database.load_row("DATA", {"ID": 5, "NAME": "b"})
        assert database.total_rows("DATA") == 1

    def test_an_unknown_table_is_refused(self):
        with pytest.raises(UnknownTableError):
            Database(make_schema(), 2).load_row("NOPE", {})

    def test_partition_bounds_checked(self):
        database = Database(make_schema(), 2)
        with pytest.raises(StorageError):
            database.partition(5)
        with pytest.raises(StorageError):
            Database(make_schema(), 0)


def benchmark_tables():
    for name in BENCHMARKS:
        catalog = get_benchmark(name).make_catalog(num_partitions=PARTITIONS)
        for table in catalog.schema.tables():
            yield pytest.param(catalog.schema, table, id=f"{name}-{table.name}")


def sample_values(table: Table, key: int) -> dict:
    """A value for every column a loader must give (nullable and defaulted
    ones are left to ``new_row``), in reverse column order: the stored row
    takes the table's column order, not the caller's."""
    values = {
        column.name: SAMPLE[column.col_type]
        for column in reversed(table.columns)
        if not column.nullable and column.default is None
    }
    if table.partition_column is not None:
        values[table.partition_column] = key
    return values


def stored_rows(database: Database, table: Table) -> list[tuple[int, dict]]:
    """``(partition, stored row)`` for every row of ``table``."""
    return [
        (store.partition_id, row)
        for store in database.partitions()
        for row in store.heap(table.name)._rows.values()
    ]


class TestLoadPlan:
    """``load_row`` stores what ``Table.new_row`` builds, where the
    partitioning scheme puts it, and fails where ``new_row`` fails."""

    @pytest.mark.parametrize("schema, table", benchmark_tables())
    def test_a_loaded_row_is_the_row_new_row_builds(self, schema, table):
        database = Database(schema, PARTITIONS)
        key = 7
        values = sample_values(table, key)
        database.load_row(table.name, values)
        expected = list(table.new_row(values).items())
        stored = stored_rows(database, table)
        assert [list(row.items()) for _, row in stored] == [expected] * len(stored)
        if table.replicated:
            assert [partition for partition, _ in stored] == list(range(PARTITIONS))
            assert len({id(row) for _, row in stored}) == PARTITIONS
        elif table.partition_column is None:
            assert [partition for partition, _ in stored] == [0]
        else:
            assert [partition for partition, _ in stored] == [key % PARTITIONS]

    @pytest.mark.parametrize("schema, table", benchmark_tables())
    def test_a_bad_row_fails_as_new_row_fails(self, schema, table):
        values = sample_values(table, 1)
        integer_column = next(
            (c.name for c in table.columns if c.col_type is ColumnType.INTEGER), None
        )
        required = [c.name for c in table.columns if not c.nullable and c.default is None]
        bad_rows = [
            {**values, "NO_SUCH_COLUMN": 1},
            {name: value for name, value in values.items() if name != required[0]},
            {**values, required[0]: object()},
        ]
        if integer_column is not None:
            bad_rows.append({**values, integer_column: True})
        for bad in bad_rows:
            with pytest.raises(Exception) as expected:
                table.new_row(bad)
            database = Database(schema, PARTITIONS)
            with pytest.raises(type(expected.value)) as raised:
                database.load_row(table.name, bad)
            assert type(raised.value) is type(expected.value)
            assert str(raised.value) == str(expected.value)
            assert database.total_rows() == 0
