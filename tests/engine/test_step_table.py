"""The compiled step table: what it costs, what it shares, when it is built.

``calls_per_statement`` is the counted gate for the per-statement path:
Python-level ``call`` events (``sys.setprofile``) inside ``execute_attempt``
divided by ``StatementExecutor.execute`` calls, over a fixed run.  The same
function read, at the parent commit, 35.73 on the TPC-C run and 86.10 on the
TATP run (the layered path: context → procedure → estimator → lock check →
executor → binders → heap → monitor); with the step tables it reads 16.97 and
45.90, and with each statement's access path compiled into its step 13.03
and 29.23 (TATP's broadcast by subscriber number probes one dict per
partition).  The count is a function of the code and the seed, not of the
host; a fresh interpreter repeats it exactly, and inside a longer pytest
session it can only read *lower* (vertex keys another live model already
holds are found, not constructed).  The gates sit just above the last pair.
"""

from __future__ import annotations

import gc
import sys
import weakref

import pytest

from repro.catalog import (
    Catalog, Operation, PartitionScheme, Schema, Statement, Table, integer, param, string,
)
from repro.engine import ExecutionEngine, StatementExecutor
from repro.engine import executor as executor_module
from repro.errors import CatalogError, UnknownColumnError
from repro.session import Cluster, ClusterSpec
from repro.storage import Database, UndoLog
from repro.types import PartitionSet, ProcedureRequest


def calls_per_statement(benchmark: str, transactions: int) -> float:
    spec = ClusterSpec(
        benchmark=benchmark, num_partitions=16, strategy="houdini",
        trace_transactions=300, seed=0, learning=True,
    )
    session = Cluster.open(spec)
    counts = {"calls": 0, "statements": 0}
    statement_code = StatementExecutor.execute.__code__

    def profiler(frame, event, _argument):
        if event == "call":
            counts["calls"] += 1
            if frame.f_code is statement_code:
                counts["statements"] += 1

    execute_attempt = ExecutionEngine.execute_attempt

    def counted(self, request, **arguments):
        sys.setprofile(profiler)
        try:
            return execute_attempt(self, request, **arguments)
        finally:
            sys.setprofile(None)

    ExecutionEngine.execute_attempt = counted
    try:
        session.run_for(txns=transactions)
    finally:
        ExecutionEngine.execute_attempt = execute_attempt
        session.close()
    return counts["calls"] / counts["statements"]


class TestCountedGate:
    @pytest.mark.parametrize("benchmark_name, transactions, parent, gate", [
        ("tpcc", 300, 35.73, 13.5),
        ("tatp", 2000, 86.10, 29.5),
    ])
    def test_python_calls_per_statement(self, benchmark_name, transactions, parent, gate):
        measured = calls_per_statement(benchmark_name, transactions)
        assert measured <= gate < parent, measured


class TestBroadcastSelect:
    def test_predicate_is_bound_once_for_all_partitions(
        self, account_catalog, account_database, monkeypatch
    ):
        """A non-key SELECT sent to every partition binds its WHERE clause
        once per statement, not once per partition."""
        binds = []
        bind_where = executor_module._bind_where

        def counting(step, parameters):
            binds.append(step.statement.name)
            return bind_where(step, parameters)

        monkeypatch.setattr(executor_module, "_bind_where", counting)
        executor = StatementExecutor(account_catalog, account_database)
        scan = Statement(
            name="ScanOwner", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_OWNER": param(0)},
        )
        rows = executor.execute(
            executor.compile(scan), ["owner-6"], PartitionSet.of(range(4)), UndoLog()
        )
        assert [row["A_ID"] for row in rows] == [6]
        assert binds == ["ScanOwner"]

    @pytest.mark.parametrize("output_columns", [("A_ID",), ("A_ID", "A_BALANCE"), ()])
    def test_a_broadcast_orders_by_a_column_it_need_not_project(
        self, account_catalog, account_database, output_columns
    ):
        """Single partition ≡ broadcast for ORDER BY + LIMIT + projection:
        the merge sorts full rows, so the ORDER BY column need not be among
        the projected ones (it raised ``KeyError`` when the merge sorted
        projected rows)."""
        for store in account_database.partitions():
            heap = store.heap("ACCOUNT")
            for row_id in list(heap.row_ids()):
                account = heap.get(row_id)["A_ID"]
                if account < 8:
                    heap.update(row_id, {"A_OWNER": "shared", "A_BALANCE": 10 * account})
        executor = StatementExecutor(account_catalog, account_database)
        step = executor.compile(Statement(
            name="Richest", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_OWNER": param(0)}, output_columns=output_columns,
            order_by=("A_BALANCE", True), limit=2,
        ))
        full_rows = executor.compile(Statement(
            name="Richest", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_OWNER": param(0)}, order_by=("A_BALANCE", True), limit=2,
        ))
        merged = [
            row for partition in range(4)
            for row in executor.execute(
                full_rows, ["shared"], PartitionSet.of([partition]), UndoLog()
            )
        ]
        merged.sort(key=lambda row: row["A_BALANCE"], reverse=True)
        expected = [
            {column: row[column] for column in output_columns or row} for row in merged[:2]
        ]
        assert [row["A_ID"] for row in expected] == [7, 6]
        assert executor.execute(step, ["shared"], PartitionSet.of(range(4)), UndoLog()) == expected


class TestTableLifetime:
    def test_a_procedure_is_compiled_once_per_executor(
        self, account_catalog, account_database, monkeypatch
    ):
        compiled = []
        compile_procedure = StatementExecutor.compile_procedure

        def counting(self, procedure):
            compiled.append(procedure.name)
            return compile_procedure(self, procedure)

        monkeypatch.setattr(StatementExecutor, "compile_procedure", counting)
        engine = ExecutionEngine(account_catalog, account_database)
        for _ in range(3):
            assert engine.execute_attempt(ProcedureRequest.of("transfer", (0, 4, 1))).committed
        assert compiled == ["transfer"]
        procedure = account_catalog.procedure("transfer")
        assert list(engine.executor.tables) == [procedure]
        assert list(engine.executor.tables[procedure]) == list(procedure.statements)

    def test_engines_on_one_catalog_do_not_share_heaps(self, account_catalog, account_database):
        """Steps capture *this* engine's heaps: a second engine over the same
        catalog and another database compiles its own table."""
        other_database = Database(account_catalog.schema, account_catalog.num_partitions)
        for account_id in range(16):
            other_database.load_row("ACCOUNT", {
                "A_ID": account_id, "A_OWNER": "other", "A_BALANCE": 7,
            })
        first = ExecutionEngine(account_catalog, account_database)
        second = ExecutionEngine(account_catalog, other_database)
        request = ProcedureRequest.of("transfer", (0, 4, 5))
        assert first.execute_attempt(request).committed
        assert second.execute_attempt(request).committed
        procedure = account_catalog.procedure("transfer")
        first_step = first.executor.tables[procedure]["GetFrom"]
        second_step = second.executor.tables[procedure]["GetFrom"]
        assert first_step is not second_step
        assert all(a is not b for a, b in zip(first_step.heaps, second_step.heaps))
        balances = [
            database.partition(0).heap("ACCOUNT").pk_rows((0,))[0]["A_BALANCE"]
            for database in (account_database, other_database)
        ]
        assert balances == [95, 2]


    def test_a_dropped_engine_frees_its_database_without_the_cycle_collector(
        self, account_catalog
    ):
        """Steps must not tie executor and heaps into a reference cycle: the
        benchmark rebuilds its database several times with the collector's
        help not guaranteed, and ``peak_rss_mib`` would pay one extra copy."""
        database = Database(account_catalog.schema, account_catalog.num_partitions)
        for account_id in range(16):
            database.load_row("ACCOUNT", {
                "A_ID": account_id, "A_OWNER": "x", "A_BALANCE": 9,
            })
        engine = ExecutionEngine(account_catalog, database)
        assert engine.execute_attempt(ProcedureRequest.of("transfer", (0, 4, 5))).committed
        heap = weakref.ref(database.partition(0).heap("ACCOUNT"))
        gc.collect()
        gc.disable()
        try:
            del engine, database
            assert heap() is None
        finally:
            gc.enable()


class TestCompiledPlansKeepTheirErrors:
    """What the catalog fixes is decided when the step is compiled, but it
    raises where the uncompiled path raised it: at execution."""

    @pytest.fixture
    def executor(self):
        schema = Schema([Table(
            name="T",
            columns=[integer("ID"), string("NAME"), integer("V", default=3),
                     integer("W", nullable=True)],
            primary_key=["ID"], partition_column="ID",
        )])
        catalog = Catalog(schema, PartitionScheme(2, 2))
        return StatementExecutor(catalog, Database(schema, 2))

    def run(self, executor, statement, parameters, partition=0):
        return executor.execute(
            executor.compile(statement), parameters, PartitionSet.of([partition]), UndoLog()
        )

    def test_insert_fills_defaults_in_table_order(self, executor):
        insert = Statement(
            name="I", table="T", operation=Operation.INSERT,
            insert_values={"NAME": param(1), "ID": param(0)},
        )
        assert self.run(executor, insert, [2, "two"]) == [{"modified": 1}]
        heap = executor.database.partition(0).heap("T")
        assert heap.pk_rows((2,)) == [{"ID": 2, "NAME": "two", "V": 3, "W": None}]
        assert list(heap.pk_rows((2,))[0]) == ["ID", "NAME", "V", "W"]

    def test_unknown_insert_column_raises_at_execution(self, executor):
        insert = Statement(
            name="I", table="T", operation=Operation.INSERT,
            insert_values={"ID": param(0), "NAME": "n", "NOPE": 1},
        )
        step = executor.compile(insert)  # compiling does not raise
        with pytest.raises(CatalogError, match="parameter index 0"):
            executor.execute(step, [], PartitionSet.of([0]), UndoLog())  # arity first
        with pytest.raises(UnknownColumnError, match="NOPE"):
            executor.execute(step, [1], PartitionSet.of([0]), UndoLog())
        assert len(executor.database.partition(0).heap("T")) == 0

    def test_missing_required_column_raises_after_earlier_type_errors(self, executor):
        insert = Statement(
            name="I", table="T", operation=Operation.INSERT, insert_values={"ID": param(0)},
        )
        with pytest.raises(CatalogError, match="expects integer"):
            self.run(executor, insert, ["not an int"])  # ID is validated first
        with pytest.raises(CatalogError, match="missing required column 'NAME'"):
            self.run(executor, insert, [1])
        assert len(executor.database.partition(0).heap("T")) == 0

    def test_a_short_parameter_list_raises_before_any_probe(self, executor):
        select = Statement(
            name="S", table="T", operation=Operation.SELECT,
            where={"ID": param(0), "NAME": "fixed"},
        )
        with pytest.raises(CatalogError, match="parameter index 0 but only 0"):
            self.run(executor, select, [])

    def test_literal_in_the_key_still_uses_the_key_path(self, executor):
        heap = executor.database.partition(0).heap("T")
        heap.insert({"ID": 4, "NAME": "four"})
        select = Statement(
            name="S", table="T", operation=Operation.SELECT, where={"ID": 4},
            output_columns=("NAME",),
        )
        step = executor.compile(select)
        assert step.key_of is not None
        assert executor.execute(step, [], PartitionSet.of([0]), UndoLog()) == [{"NAME": "four"}]
