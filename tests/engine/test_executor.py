"""Tests for the statement executor."""

import pytest

from repro.catalog import Operation, Statement, delta, param
from repro.engine import StatementExecutor
from repro.errors import ExecutionError
from repro.storage import UndoLog
from repro.types import PartitionSet
from tests.conftest import TransferProcedure


def run(executor, statement, parameters, partitions, undo_log):
    """``execute`` takes a compiled step and a partition set."""
    return executor.execute(
        executor.compile(statement), parameters, PartitionSet.of(partitions), undo_log
    )


@pytest.fixture
def setup(account_catalog, account_database):
    executor = StatementExecutor(account_catalog, account_database)
    return account_catalog, account_database, executor


class TestSelect:
    def test_select_single_partition(self, setup):
        catalog, database, executor = setup
        statement = TransferProcedure.statements["GetFrom"]
        rows = run(executor, statement, [4], [0], UndoLog())
        assert rows == [{"A_ID": 4, "A_OWNER": "owner-4", "A_BALANCE": 100}]

    def test_select_merges_partitions(self, setup):
        catalog, database, executor = setup
        statement = Statement(
            name="ScanOwner", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_OWNER": param(0)},
        )
        rows = run(executor, statement, ["owner-6"], range(4), UndoLog())
        assert len(rows) == 1 and rows[0]["A_ID"] == 6

    def test_empty_partition_list_rejected(self, setup):
        _, _, executor = setup
        statement = TransferProcedure.statements["GetFrom"]
        with pytest.raises(ExecutionError):
            run(executor, statement, [4], [], UndoLog())


class TestWrites:
    def test_update_with_delta(self, setup):
        catalog, database, executor = setup
        statement = Statement(
            name="AddBalance", table="ACCOUNT", operation=Operation.UPDATE,
            where={"A_ID": param(0)}, set_values={"A_BALANCE": delta(1)},
        )
        undo = UndoLog()
        result = run(executor, statement, [4, 25], [0], undo)
        assert result == [{"modified": 1}]
        rows = run(executor, TransferProcedure.statements["GetFrom"], [4], [0], UndoLog())
        assert rows[0]["A_BALANCE"] == 125
        assert undo.records_written == 1

    def test_insert_records_undo(self, setup):
        catalog, database, executor = setup
        statement = Statement(
            name="NewAccount", table="ACCOUNT", operation=Operation.INSERT,
            insert_values={"A_ID": param(0), "A_OWNER": param(1), "A_BALANCE": 0},
        )
        undo = UndoLog()
        run(executor, statement, [100, "new"], [0], undo)
        assert undo.records_written == 1
        assert database.partition(0).heap("ACCOUNT").find({"A_ID": 100})

    def test_delete(self, setup):
        catalog, database, executor = setup
        statement = Statement(
            name="Drop", table="ACCOUNT", operation=Operation.DELETE,
            where={"A_ID": param(0)},
        )
        undo = UndoLog()
        result = run(executor, statement, [8], [0], undo)
        assert result == [{"modified": 1}]
        assert not database.partition(0).heap("ACCOUNT").find({"A_ID": 8})
        assert undo.records_written == 1

    def test_write_to_multiple_partitions_counts_all(self, setup):
        catalog, database, executor = setup
        statement = Statement(
            name="Zero", table="ACCOUNT", operation=Operation.UPDATE,
            where={}, set_values={"A_BALANCE": 0},
        )
        result = run(executor, statement, [], range(4), UndoLog())
        assert result == [{"modified": 16}]
