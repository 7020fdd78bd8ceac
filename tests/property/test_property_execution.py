"""Property: the compiled step tables execute exactly what the paper-literal
path executes (compiled ≡ interpreted, for the engine).

Generated work is driven, in lockstep, through ``repro.engine`` and through
``tests/engine/reference.py`` on two fresh copies of the TATP, TPC-C,
SmallBank and AuctionMark databases:

* **statements** — ``ctx.execute`` calls on one context per side, with
  generated parameter vectors: values from the live tables and fresh ones,
  ``None`` (a ``None`` routing value broadcasts), wrong types, short lists,
  an unknown statement name, repeated inserts (duplicate keys), a drawn lock
  set, and a drawn point at which undo logging is switched off — an off-lock
  access aborts before it and escalates after it;
* **attempts** — whole procedures through ``execute_attempt``, requests from
  the benchmark's own generator with perturbed parameters (missing rows make
  the control code abort mid-transaction), a drawn base partition and lock
  set, and a listener that disables logging part-way (the OP3 run-time
  update).

Every step must agree on the rows returned or the exception's type and
message, and every example on the ``QueryInvocation`` stream, undo records
written/skipped, captured effects, lock-set escalation and the final heaps
*and index buckets*; rolling back afterwards must restore the pristine rows
with every index equal to a scan.

The property is proven by seeded mutations it must catch
(``TestMutationsAreCaught``).  Tier-1 runs a fixed-seed slice of the default
budget (seconds); CI's ``execution-smoke`` job runs
``--hypothesis-profile=long`` (registered in ``tests/conftest.py``).
"""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import event, given, settings, strategies as st

from repro import session as api
from repro.catalog import ColumnDelta, ColumnType, ParameterRef
from repro.engine import ExecutionEngine
from repro.engine import executor as executor_module
from repro.engine.context import TransactionContext
from repro.storage import UndoLog
from repro.types import PartitionSet, ProcedureRequest
from tests.engine.reference import CapturingUndoLog, ReferenceContext, reference_attempt
from tests.storage.invariants import assert_indexes_match_scan, heap_state

BENCHMARKS = ("tatp", "tpcc", "smallbank", "auctionmark")
PARTITIONS = 4
POOL = 24
UNKNOWN_STATEMENT = "NoSuchStatement"
#: Small databases: every example unpickles two copies and compares them whole.
SCALE = {
    "tatp": {"subscribers_per_partition": 10},
    "tpcc": {"customers_per_district": 5, "items": 30, "initial_orders_per_district": 3,
             "districts_per_warehouse": 2},
    "smallbank": {"accounts_per_partition": 10, "hotspot_accounts": 4},
    "auctionmark": {"users_per_partition": 6},
}


@functools.cache
def world(benchmark: str):
    """Catalog, the pickled pristine database, a request pool and, per
    ``(table, column)``, a few values that occur in the loaded data."""
    instance = api.build_benchmark(
        benchmark, PARTITIONS, seed=5, config_overrides=SCALE[benchmark]
    )
    requests = instance.generator.generate(POOL)
    values: dict[tuple[str, str], list] = {}
    for table in instance.catalog.schema.tables():
        rows = [
            row for store in instance.database.partitions()
            for row in store.heap(table.name).rows()
        ]
        for column in table.columns:
            seen = sorted({row[column.name] for row in rows if row[column.name] is not None})
            values[table.name, column.name] = seen[:: max(1, len(seen) // 6)][:6]
    return instance.catalog, pickle.dumps(instance.database), requests, values


def fresh_pair(benchmark: str):
    catalog, pristine, _, _ = world(benchmark)
    return catalog, pickle.loads(pristine), pickle.loads(pristine)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def outcome_of(action):
    try:
        return ("returned", action())
    except Exception as error:  # noqa: BLE001 - the exception *is* the outcome
        return ("raised", type(error).__name__, str(error))


def database_state(database):
    """Every heap's rows and declared indexes, bucket order included.  The
    reference scans, so it builds no primary-key prefix index: those are
    left out of the state and each is checked against a scan instead."""
    state = []
    for store in database.partitions():
        for name in sorted(store.table_names()):
            heap = store.heap(name)
            assert_indexes_match_scan(heap)
            next_row_id, rows, indexes = heap_state(heap)
            declared = indexes[: len(indexes) - len(heap._prefix)]
            state.append((store.partition_id, name, (next_row_id, rows, declared)))
    return state


def rows_of(database):
    return [
        (store.partition_id, name, sorted(store.heap(name)._rows.items()))
        for store in database.partitions() for name in sorted(store.table_names())
    ]


def assert_same_end_state(benchmark, logs, databases):
    engine_log, reference_log = logs
    assert engine_log.records_written == reference_log.records_written, "undo written disagree"
    assert engine_log.records_skipped == reference_log.records_skipped, "undo skipped disagree"
    assert engine_log.effects == reference_log.effects, "captured effects disagree"
    assert database_state(databases[0]) == database_state(databases[1]), "final heaps disagree"
    if engine_log.records_skipped == 0:
        # Every heap mutation has its undo record: unwinding both sides must
        # give back the loaded rows, with every index equal to a scan.
        for log, database in zip(logs, databases):
            log.rollback(database.partition)
        assert engine_log.effects == reference_log.effects, "inverse effects disagree"
        pristine = pickle.loads(world(benchmark)[1])
        for database in databases:
            assert rows_of(database) == rows_of(pristine), "rollback did not restore the rows"
            for store in database.partitions():
                for name in store.table_names():
                    assert_indexes_match_scan(store.heap(name))


# ----------------------------------------------------------------------
# Statements: ctx.execute calls on one context per side
# ----------------------------------------------------------------------
def check_statements(benchmark, procedure_name, base, locked, undo_enabled, calls):
    """``calls`` is ``[(statement name, parameters, disable logging first?)]``;
    returns what happened, one label per call (plus ``"escalated"``)."""
    happened = []
    catalog, engine_db, reference_db = fresh_pair(benchmark)
    procedure = catalog.procedure(procedure_name)
    lock_set = None if locked is None else PartitionSet.of(locked)
    logs = (CapturingUndoLog(enabled=undo_enabled), CapturingUndoLog(enabled=undo_enabled))
    engine_ctx = TransactionContext(
        ExecutionEngine(catalog, engine_db).executor, procedure, (),
        base_partition=base, locked_partitions=lock_set, undo_log=logs[0],
    )
    reference_ctx = ReferenceContext(
        catalog, reference_db, procedure,
        base_partition=base, locked_partitions=lock_set, undo_log=logs[1],
    )
    for step, (name, parameters, disable_first) in enumerate(calls):
        if disable_first:
            engine_ctx.disable_undo_logging()
            reference_ctx.disable_undo_logging()
        got = outcome_of(lambda: engine_ctx.execute(name, list(parameters)))
        expected = outcome_of(lambda: reference_ctx.execute(name, list(parameters)))
        assert got == expected, f"step {step} ({name}{parameters!r}) disagree"
        happened.append(got[1] if got[0] == "raised" else "returned")
    if engine_ctx.escalated_partitions:
        happened.append("escalated")
    assert engine_ctx.invocations == reference_ctx.invocations, "invocations disagree"
    assert engine_ctx.touched_partitions == reference_ctx.touched_partitions
    assert engine_ctx.locked_partitions == reference_ctx.locked_partitions, "lock sets disagree"
    assert engine_ctx.escalated_partitions == reference_ctx.escalated_partitions
    assert_same_end_state(benchmark, logs, (engine_db, reference_db))
    return happened


_JUNK = st.sampled_from([None, None, "junk", 2.5, True, -1])


def value_strategy(column, known):
    """Mostly values that fit ``column`` (and often hit a row), sometimes not."""
    if column is None:
        return st.integers(0, 9)
    if column.col_type is ColumnType.STRING:
        fitting = st.sampled_from([*known, "fresh"])
    elif column.col_type is ColumnType.FLOAT:
        fitting = st.sampled_from([*known, 1.5, 7])
    elif column.col_type is ColumnType.BOOLEAN:
        fitting = st.booleans()
    else:
        fitting = st.one_of(st.sampled_from(known), st.integers(0, 12)) if known else st.integers(0, 12)
    return st.one_of(fitting, fitting, fitting, fitting, _JUNK)


def parameters_strategy(benchmark, statement):
    catalog, _, _, values = world(benchmark)
    table = catalog.schema.table(statement.table)
    bound = {}
    for bindings in (statement.where, statement.insert_values, statement.set_values):
        for column, value in bindings.items():
            if isinstance(value, (ParameterRef, ColumnDelta)):
                bound[value.index] = column
    slots = [
        value_strategy(
            table.column(bound[index]) if index in bound else None,
            values.get((table.name, bound.get(index)), []),
        )
        for index in range(statement.parameter_count())
    ]
    full = st.tuples(*slots)
    return st.one_of(full, full, full, full.map(lambda vector: vector[:-1]))


@st.composite
def statement_scripts(draw, benchmark):
    catalog = world(benchmark)[0]
    procedure = draw(st.sampled_from(sorted(catalog.procedures(), key=lambda p: p.name)))
    names = [*procedure.statements, UNKNOWN_STATEMENT]
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(names))
        statement = procedure.statements.get(name)
        parameters = draw(parameters_strategy(benchmark, statement)) if statement else ()
        if calls and draw(st.integers(0, 3)) == 0:
            name, parameters = calls[-1][0], calls[-1][1]  # again: duplicate keys
        calls.append((name, parameters, draw(st.integers(0, 5)) == 0))
    partitions = st.integers(0, PARTITIONS - 1)
    locked = draw(st.one_of(st.none(), st.sets(partitions, min_size=1).map(sorted)))
    return procedure.name, draw(partitions), locked, draw(st.booleans()), calls


@pytest.mark.parametrize("workload", BENCHMARKS)
@given(data=st.data())
@settings(deadline=None, derandomize=True,
          max_examples=max(20, settings.default.max_examples // 5))
def test_statements_execute_like_the_reference(workload, data):
    for label in check_statements(workload, *data.draw(statement_scripts(workload))):
        event(f"statement {label}")


# ----------------------------------------------------------------------
# Attempts: whole procedures through execute_attempt
# ----------------------------------------------------------------------
class DisableLoggingAfter:
    """Listener standing in for the OP3 run-time update."""

    def __init__(self, queries):
        self.queries, self.seen = queries, 0

    def __call__(self, context, invocation):
        self.seen += 1
        if self.seen == self.queries:
            context.disable_undo_logging()


class KeepingLog(CapturingUndoLog):
    """Keeps the undo records past commit, so both sides' can be compared."""

    def clear(self):
        self.kept = list(self._records)
        super().clear()


def check_attempts(benchmark, attempts):
    """``attempts`` is ``[(request, base, locked, undo enabled?, disable
    logging after N queries or None)]``, run in order on one database pair;
    returns what happened, one label per attempt."""
    happened = []
    catalog, engine_db, reference_db = fresh_pair(benchmark)
    engine = ExecutionEngine(catalog, engine_db)
    for number, (request, base, locked, undo_enabled, disable_after) in enumerate(attempts):
        lock_set = None if locked is None else PartitionSet.of(locked)
        logs = (KeepingLog(enabled=undo_enabled), KeepingLog(enabled=undo_enabled))
        arguments = dict(
            base_partition=base, locked_partitions=lock_set, undo_enabled=undo_enabled
        )
        got = outcome_of(lambda: engine.execute_attempt(
            request, listeners=[DisableLoggingAfter(disable_after)], undo_log=logs[0],
            **arguments,
        ))
        expected = outcome_of(lambda: reference_attempt(
            catalog, reference_db, request,
            listeners=[DisableLoggingAfter(disable_after)], undo_log=logs[1], **arguments,
        ))
        assert got == expected, f"attempt {number} ({request.procedure}) disagree"
        happened.append(got[1].outcome.value if got[0] == "returned" else got[1])
        assert logs[0].effects == logs[1].effects, f"attempt {number} effects disagree"
        kept = [getattr(log, "kept", None) for log in logs]  # None: rolled back
        assert kept[0] == kept[1], f"attempt {number} undo disagree"
    assert database_state(engine_db) == database_state(reference_db), "final heaps disagree"
    for store in engine_db.partitions():
        for name in store.table_names():
            assert_indexes_match_scan(store.heap(name))
    return happened


@st.composite
def attempt_scripts(draw, benchmark):
    requests = world(benchmark)[2]
    partitions = st.integers(0, PARTITIONS - 1)
    attempts = []
    for _ in range(draw(st.integers(1, 5))):
        request = draw(st.sampled_from(requests))
        parameters = list(request.parameters)
        scalars = [i for i, value in enumerate(parameters) if type(value) is int]
        if scalars and draw(st.integers(0, 2)) == 0:
            parameters[draw(st.sampled_from(scalars))] = draw(st.integers(0, 400))
        if draw(st.integers(0, 11)) == 0:
            parameters = parameters[:-1]  # procedure arity error
        attempts.append((
            ProcedureRequest(request.procedure, tuple(parameters)),
            draw(partitions),
            draw(st.one_of(st.none(), st.none(), st.sets(partitions, min_size=1).map(sorted))),
            draw(st.booleans()),
            draw(st.one_of(st.none(), st.integers(1, 6))),
        ))
    return attempts


@pytest.mark.parametrize("workload", BENCHMARKS)
@given(data=st.data())
@settings(deadline=None, derandomize=True,
          max_examples=max(20, settings.default.max_examples // 5))
def test_attempts_execute_like_the_reference(workload, data):
    for label in check_attempts(workload, data.draw(attempt_scripts(workload))):
        event(f"attempt {label}")


# ----------------------------------------------------------------------
# The cases the generators reach only now and then, pinned as scripts.
# ----------------------------------------------------------------------
def known(benchmark, table, column):
    return world(benchmark)[3][table, column]


def pool_request(benchmark, procedure):
    return next(r for r in world(benchmark)[2] if r.procedure == procedure)


class TestNamedCases:
    def test_short_parameter_lists(self):
        custid = known("smallbank", "CHECKING", "CUSTID")[0]
        assert check_statements("smallbank", "DepositChecking", 0, None, True, [
            ("GetAccount", (), False),                       # no routing value
            ("UpdateCheckingBalance", (custid,), False),     # WHERE binds, SET cannot
        ]) == ["CatalogError", "CatalogError"]

    def test_none_routing_value_broadcasts(self):
        home = [0]
        assert check_statements("smallbank", "DepositChecking", 0, None, True, [
            ("GetAccount", (None,), False),
        ]) == ["returned"]
        assert check_statements("smallbank", "DepositChecking", 0, home, True, [
            ("GetAccount", (None,), False),
        ]) == ["MispredictionAbort"]

    def test_unknown_statement(self):
        assert check_statements("tatp", "GetSubscriberData", 0, None, True, [
            (UNKNOWN_STATEMENT, (1,), False),
        ]) == ["UnknownStatementError"]

    def test_duplicate_primary_key(self):
        s_id = known("tatp", "SUBSCRIBER", "S_ID")[1]
        row = (s_id, 1, 99, 100, "0123")
        assert check_statements("tatp", "InsertCallForwarding", 0, None, True, [
            ("InsertCallForwarding", row, False),
            ("InsertCallForwarding", row, False),
        ]) == ["returned", "DuplicateKeyError"]

    def test_off_lock_set_access_aborts_before_op3_and_escalates_after(self):
        custid = known("smallbank", "CHECKING", "CUSTID")[0]
        home = custid % PARTITIONS
        assert check_statements("smallbank", "DepositChecking", home, [home], True, [
            ("UpdateCheckingBalance", (custid + 1, 5.0), False),
            ("UpdateCheckingBalance", (custid, 10.0), True),
            ("UpdateCheckingBalance", (custid + 1, 5.0), False),
        ]) == ["MispredictionAbort", "returned", "returned", "escalated"]

    def test_user_abort_mid_transaction(self):
        custid = known("smallbank", "SAVINGS", "CUSTID")[0]
        overdraft = ProcedureRequest("TransactSavings", (custid, -1e12))
        neworder = pool_request("tpcc", "neworder")
        bad_item = list(neworder.parameters)
        bad_item[3] = [*bad_item[3][:-1], 10**6]
        assert check_attempts("smallbank", [(overdraft, 0, None, True, None)]) == ["user_abort"]
        assert check_attempts("tpcc", [
            (ProcedureRequest("neworder", tuple(bad_item)), 0, None, True, None),
        ]) == ["user_abort"]

    def test_misprediction_after_writes_rolls_them_back(self):
        neworder = pool_request("tpcc", "neworder")
        w_id = neworder.parameters[0]
        remote = next(w for w in known("tpcc", "WAREHOUSE", "W_ID") if w != w_id)
        parameters = list(neworder.parameters)
        parameters[4] = [remote, *parameters[4][1:]]
        request = ProcedureRequest("neworder", tuple(parameters))
        home = world("tpcc")[0].scheme.partition_for_value(w_id)
        assert check_attempts("tpcc", [
            (request, home, [home], True, None),
            (request, home, None, True, 3),  # the restart: all partitions, OP3 mid-way
        ]) == ["misprediction", "committed"]


# ----------------------------------------------------------------------
# The property must catch a broken executor.
# ----------------------------------------------------------------------
_real_check_lock_set = TransactionContext._check_lock_set


def _lock_test_skipped_for_singletons(self, partitions):
    if len(partitions.partitions) > 1:
        _real_check_lock_set(self, partitions)


class TestMutationsAreCaught:
    def smallbank_customer(self):
        return world("smallbank")[3]["CHECKING", "CUSTID"][0]

    def test_a_delta_applied_as_an_assignment(self, monkeypatch):
        """``BAL = BAL + amount`` must not become ``BAL = amount``."""
        custid = self.smallbank_customer()
        script = ("DepositChecking", custid % PARTITIONS, None, True,
                  [("UpdateCheckingBalance", (custid, 10.0), False)])
        check_statements("smallbank", *script)
        monkeypatch.setattr(executor_module, "BIND_DELTA", -1)
        with pytest.raises(AssertionError, match="disagree"):
            check_statements("smallbank", *script)

    def test_the_lock_test_skipped_for_singleton_sets(self, monkeypatch):
        """An access outside the lock set must abort, not run."""
        custid = self.smallbank_customer()
        elsewhere = (custid + 1) % PARTITIONS
        script = ("DepositChecking", elsewhere, [elsewhere], True,
                  [("UpdateCheckingBalance", (custid, 10.0), False)])
        check_statements("smallbank", *script)
        monkeypatch.setattr(
            TransactionContext, "_check_lock_set", _lock_test_skipped_for_singletons
        )
        with pytest.raises(AssertionError, match="disagree"):
            check_statements("smallbank", *script)

    def test_a_skipped_undo_record_not_counted(self, monkeypatch):
        """With logging off the skipped count still decides abort vs.
        escalate: an update after OP3 must count."""
        custid = self.smallbank_customer()
        home = custid % PARTITIONS
        script = ("DepositChecking", home, [home], True, [
            ("UpdateCheckingBalance", (custid, 10.0), True),
            ("UpdateCheckingBalance", (custid + 1, 5.0), False),  # the next partition
        ])
        check_statements("smallbank", *script)
        monkeypatch.setattr(UndoLog, "note_skipped", lambda self: None)
        with pytest.raises(AssertionError, match="disagree"):
            check_statements("smallbank", *script)
