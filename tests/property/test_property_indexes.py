"""Property: unique indexes holding row ids ≡ the list-bucket index they replaced.

Generated work is driven, in lockstep, through the shipped
:class:`~repro.storage.UniqueIndex` / :class:`~repro.storage.HashIndex` pair
and through ``tests/storage/reference.py`` (one list bucket per key):

* **indexes** — ``insert``, ``remove`` (right and wrong row ids),
  ``check_unique`` and every lookup, on a unique and a non-unique index;
* **heaps** — a :class:`~repro.storage.RowHeap` and a ``ReferenceHeap`` over
  one table with a two-column primary key, a unique and a non-unique
  secondary index: inserts (duplicate keys included), updates that re-key
  the primary or the unique index, deletes, ``insert_raw`` of deleted rows,
  UPDATE / DELETE statements through a compiled executor step, every read
  path (``find``, ``select`` and compiled SELECT steps — one partition and a
  broadcast, with and without ORDER BY / LIMIT — through primary, unique,
  non-unique and lazily built prefix indexes and scans; ``pk_rows``), and
  transactions of writes under an :class:`~repro.storage.UndoLog` that
  commit or roll back.  The reference heap plans each call from the bound
  predicate with the planner the compiled steps replaced.

Every step must agree on the result or the exception's type and message,
and on the heap afterwards, index bucket order included (so a prefix index
the shipped planner builds and the reference's does not shows), and a
rollback must restore the rows with every index equal to a scan.

The property is proven by seeded mutations it must catch
(``TestMutationsAreCaught``).  Tier-1 runs the default budget; CI's
``training-smoke`` job runs ``--hypothesis-profile=long`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.catalog import (
    Catalog, Operation, PartitionScheme, Schema, SecondaryIndex, Statement, Table, integer, param,
)
from repro.engine import StatementExecutor
from repro.errors import StorageError
from repro.storage import Database, HashIndex, RowHeap, UndoLog, UniqueIndex
from repro.storage.heap import AccessPath
from repro.types import PartitionSet
from tests.storage import reference
from tests.storage.invariants import assert_indexes_match_scan, heap_state

TABLE = Table(
    name="T",
    columns=[integer("A"), integer("B"), integer("U"), integer("G"), integer("V")],
    primary_key=["A", "B"],
    partition_column="A",
    secondary_indexes=[
        SecondaryIndex("IDX_U", ("U",), unique=True),
        SecondaryIndex("IDX_G", ("G",)),
    ],
)
COLUMNS = ("A", "B", "U", "G", "V")
SCHEMA = Schema([TABLE])
CATALOG = Catalog(SCHEMA, PartitionScheme(2))
#: Predicate column sets: primary key, its prefix (a lazily built index),
#: prefix plus a residual column, unique, non-unique, both, none, and one a
#: secondary index and the prefix both cover (the secondary index wins).
PREDICATES = (("A", "B"), ("A",), ("A", "V"), ("U",), ("G",), ("U", "G"), (), ("A", "G"))

small = st.integers(0, 3)
rows = st.fixed_dictionaries({column: small for column in COLUMNS})
assignments = st.dictionaries(st.sampled_from(COLUMNS), small, min_size=1, max_size=3)
picks = st.integers(0, 20)
writes = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("update"), picks, assignments),
    st.tuples(st.just("delete"), picks),
    st.tuples(st.just("step_update"), picks, assignments, st.sampled_from(PREDICATES)),
    st.tuples(st.just("step_delete"), picks, st.none(), st.sampled_from(PREDICATES)),
)
heap_ops = st.one_of(
    writes,
    st.tuples(st.just("reinsert"), picks),
    st.tuples(st.just("read"), st.sampled_from(PREDICATES), rows),
    st.tuples(st.just("txn"), st.lists(writes, max_size=6), st.booleans()),
)
index_ops = st.tuples(st.sampled_from(("insert", "remove", "check_unique")), small, small)


def outcome(call):
    """A call's result, or the type and message of the storage error it raised."""
    try:
        return ("ok", call())
    except StorageError as exc:
        return ("raise", type(exc).__name__, str(exc))


def agree(what: str, shipped, expected) -> None:
    assert shipped == expected, f"{what} disagree: {shipped!r} != {expected!r}"


# ----------------------------------------------------------------------
# Index level
# ----------------------------------------------------------------------
def probed(index, key) -> list[int]:
    """The row ids a probe of ``key`` finds."""
    if isinstance(index, reference.HashIndex):
        return index.lookup(key)
    entry = index.prober()(key)
    if entry is None:
        return []
    return [entry] if isinstance(index, UniqueIndex) else list(entry)


def index_view(index) -> tuple:
    keys = list(index.keys())
    return (
        len(index),
        [(key, list(row_ids)) for key, row_ids in index.items()],
        [(index.contains(key), probed(index, key)) for key in [*keys, (99,)]],
    )


def check_index_ops(shipped, expected, ops) -> None:
    for name, key, row_id in ops:
        args = ((key,),) if name == "check_unique" else ((key,), row_id)
        agree(
            f"{name}{args}",
            outcome(lambda: getattr(shipped, name)(*args)),
            outcome(lambda: getattr(expected, name)(*args)),
        )
        agree(f"state after {name}{args}", index_view(shipped), index_view(expected))


def unique_pair():
    return UniqueIndex(("k",)), reference.HashIndex(("k",), unique=True)


# ----------------------------------------------------------------------
# Heap level
# ----------------------------------------------------------------------
def write_row(heap: RowHeap, row_id: int, values, log: UndoLog):
    """UPDATE with ``values`` / DELETE (``None``) of one row, logged."""
    if values is None:
        image = heap.delete(row_id)
        log.record_delete("T", 0, row_id, image)
        return image
    before = heap.update(row_id, values)
    log.record_update("T", 0, row_id, before)
    return before


def executor_over(heap: RowHeap) -> StatementExecutor:
    """A statement executor whose two partitions both store ``heap``: a
    broadcast reads it twice and merges the two results."""
    database = Database(SCHEMA, 2)
    for store in database.partitions():
        store._heaps["T"] = heap
    return StatementExecutor(CATALOG, database)


def statement(operation, columns, **clauses) -> Statement:
    where = {column: param(i) for i, column in enumerate(columns)}
    return Statement(name="S", table="T", operation=operation, where=where, **clauses)


def step_write(heap: RowHeap, columns, values, assignments, log: UndoLog, *, compiled: bool):
    """UPDATE ... SET ``assignments`` / DELETE (``None``) WHERE ``columns``
    equal ``values``: a compiled executor step on the shipped heap, the
    reference heap's ``find`` and a per-row loop on the other."""
    parameters = [values[column] for column in columns]
    if not compiled:
        row_ids = heap.find(dict(zip(columns, parameters)))
        for row_id in row_ids:
            write_row(heap, row_id, assignments, log)
        return len(row_ids)
    if assignments is None:
        write = statement(Operation.DELETE, columns)
    else:
        write = statement(Operation.UPDATE, columns, set_values={
            column: param(len(columns) + i) for i, column in enumerate(assignments)
        })
        parameters += assignments.values()
    executor = executor_over(heap)
    (result,) = executor.execute(executor.compile(write), parameters, PartitionSet.of([0]), log)
    return result["modified"]


def apply_write(heap: RowHeap, op, log: UndoLog, *, shipped: bool):
    kind = op[0]
    if kind == "insert":
        row_id = heap.insert(dict(op[1]))
        log.record_insert("T", 0, row_id)
        return row_id
    row_ids = sorted(heap.row_ids())
    # An empty heap: a row id that is not there.
    row_id = row_ids[op[1] % len(row_ids)] if row_ids else op[1]
    values = op[2] if kind.endswith("update") else None
    if kind.startswith("step_"):
        row = heap._rows[row_id] if row_ids else dict.fromkeys(COLUMNS, op[1])
        return step_write(heap, op[3], row, values, log, compiled=shipped)
    return write_row(heap, row_id, values, log)


#: What a compiled SELECT is asked: ``(partitions, output columns, order
#: by, limit)`` — one partition and a broadcast, whole rows and a
#: projection that leaves out the ORDER BY column.
SELECTS = (
    ((0,), (), None, None),
    ((0, 1), (), None, None),
    ((0,), ("B", "U"), ("V", True), 3),
    ((0, 1), ("B", "U"), ("V", True), 3),
    ((0, 1), ("A", "V"), ("B", False), 1),
)


def reference_select(heap, predicate, partitions, output_columns, order_by, limit):
    """A compiled SELECT, spelled out over the reference heap's ``select``."""
    rows = []
    for _ in partitions:
        rows.extend(heap.select(predicate, order_by=order_by, limit=limit))
    if order_by is not None and len(partitions) > 1:
        column, descending = order_by
        rows = sorted(rows, key=lambda row: row[column], reverse=descending)[:limit]
    if output_columns:
        rows = [{column: row[column] for column in output_columns} for row in rows]
    return rows


def read_all(heap: RowHeap, columns, values, *, compiled: bool) -> tuple:
    predicate = {column: values[column] for column in columns}
    key = (values["A"], values["B"])
    if compiled:
        executor = executor_over(heap)
        selects = [
            executor.execute(
                executor.compile(statement(
                    Operation.SELECT, columns,
                    output_columns=output_columns, order_by=order_by, limit=limit,
                )),
                list(predicate.values()), PartitionSet.of(partitions), UndoLog(),
            )
            for partitions, output_columns, order_by, limit in SELECTS
        ]
    else:
        selects = [reference_select(heap, predicate, *select) for select in SELECTS]
    return (
        heap.find(predicate),
        heap.select(predicate, order_by=("V", True), limit=3),
        selects,
        heap.pk_rows(key),
        len(heap),
    )


def snapshot(heap: RowHeap) -> dict[int, dict]:
    return {row_id: heap.get(row_id) for row_id in heap.row_ids()}


class HeapPair:
    """One shipped and one reference heap, driven in lockstep."""

    def __init__(self) -> None:
        self.heaps = {True: RowHeap(TABLE), False: reference.ReferenceHeap(TABLE)}
        self.deleted: list[tuple[int, dict]] = []
        #: Outcome labels, for ``--hypothesis-show-statistics``.
        self.events: list[str] = []

    def both(self, what: str, call):
        shipped = outcome(lambda: call(self.heaps[True], True))
        agree(what, shipped, outcome(lambda: call(self.heaps[False], False)))
        return shipped

    def run(self, op) -> None:
        kind = op[0]
        before = snapshot(self.heaps[True])
        if kind == "read":
            self.both(f"read {op[1]}",
                      lambda heap, shipped: read_all(heap, op[1], op[2], compiled=shipped))
        elif kind == "reinsert":
            if self.deleted:
                row_id, image = self.deleted[op[1] % len(self.deleted)]
                result = self.both(f"insert_raw({row_id})",
                                   lambda heap, shipped: heap.insert_raw(dict(image), row_id))
                self.events.append(f"reinsert: {result[0]}")
        elif kind == "txn":
            self.transaction(op[1], commit=op[2])
        else:
            result = self.both(
                repr(op), lambda heap, shipped: apply_write(heap, op, UndoLog(), shipped=shipped)
            )
            self.events.append(f"{kind}: {result[0]}")
        after = snapshot(self.heaps[True])
        self.deleted.extend((row_id, row) for row_id, row in before.items() if row_id not in after)
        agree(f"heap state after {op!r}", heap_state(self.heaps[True]), heap_state(self.heaps[False]))
        assert_indexes_match_scan(self.heaps[True])

    def transaction(self, ops, *, commit: bool) -> None:
        pristine = {shipped: snapshot(heap) for shipped, heap in self.heaps.items()}
        logs = {True: UndoLog(), False: UndoLog()}
        for op in ops:
            self.both(repr(op), lambda heap, shipped: apply_write(
                heap, op, logs[shipped], shipped=shipped
            ))
        self.events.append(
            f"txn of {len(logs[True])} logged writes: {'commit' if commit else 'rollback'}"
        )
        if commit:
            return
        self.both("rollback", lambda heap, shipped: logs[shipped].rollback(
            lambda partition_id: SimpleNamespace(heap=lambda name: heap)
        ))
        for shipped, heap in self.heaps.items():
            assert snapshot(heap) == pristine[shipped], "rollback did not restore the rows"


def check_heap_ops(ops) -> HeapPair:
    pair = HeapPair()
    for op in ops:
        pair.run(op)
    return pair


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(st.lists(index_ops, max_size=40))
def test_unique_index_matches_list_buckets(ops):
    check_index_ops(*unique_pair(), ops)


@settings(deadline=None)
@given(st.lists(index_ops, max_size=40))
def test_hash_index_matches_list_buckets(ops):
    check_index_ops(HashIndex(("k",)), reference.HashIndex(("k",)), ops)


@settings(deadline=None)
@given(st.lists(heap_ops, max_size=30))
def test_heap_matches_reference_heap(ops):
    for label in check_heap_ops(ops).events:
        event(label)


# ----------------------------------------------------------------------
# Seeded mutations
# ----------------------------------------------------------------------
def _overwriting_insert(self, key, row_id):
    self._entries[key] = row_id


def _remove_ignoring_row_id(self, key, row_id):
    del self._entries[key]


_match = RowHeap.match
_access_path = RowHeap.access_path


def _match_handing_out_the_live_bucket(self, probe, key, residual, unique):
    entry = probe(key)
    if entry is not None and not unique and not residual:
        return entry
    return _match(self, probe, key, residual, unique)


def _prefix_before_secondary_indexes(self, columns):
    path = _access_path(self, columns)
    length = 0
    while length < len(self._pk_columns) and self._pk_columns[length] in columns:
        length += 1
    if 0 < length < len(self._pk_columns):
        return AccessPath(self._pk_columns[:length], len(columns) == length, False)
    return path


def _every_path_exact(self, columns):
    return _access_path(self, columns)._replace(exact=True)


def _insert_raw_storing_first(self, row, row_id):
    if row_id in self._rows:
        raise StorageError(f"row id {row_id} already present")
    self._rows[row_id] = dict(row)
    self._next_row_id = max(self._next_row_id, row_id + 1)
    for index in self._indexes:
        index.insert(index.key_of(row), row_id)


ROW = {"A": 0, "B": 0, "U": 1, "G": 0, "V": 0}


class TestMutationsAreCaught:
    def test_a_unique_insert_overwriting_its_key(self, monkeypatch):
        ops = [("insert", 1, 1), ("insert", 1, 2)]
        check_index_ops(*unique_pair(), ops)
        monkeypatch.setattr(UniqueIndex, "insert", _overwriting_insert)
        with pytest.raises(AssertionError, match="disagree"):
            check_index_ops(*unique_pair(), ops)

    def test_a_remove_ignoring_the_row_id(self, monkeypatch):
        ops = [("insert", 1, 1), ("remove", 1, 2)]
        check_index_ops(*unique_pair(), ops)
        monkeypatch.setattr(UniqueIndex, "remove", _remove_ignoring_row_id)
        with pytest.raises(AssertionError, match="disagree"):
            check_index_ops(*unique_pair(), ops)

    def test_a_write_iterating_a_live_bucket(self, monkeypatch):
        ops = [
            ("insert", ROW), ("insert", {**ROW, "A": 1, "U": 2}), ("step_delete", 0, None, ("G",)),
        ]
        check_heap_ops(ops)
        monkeypatch.setattr(RowHeap, "match", _match_handing_out_the_live_bucket)
        with pytest.raises(AssertionError, match="disagree"):
            check_heap_ops(ops)

    def test_the_prefix_planned_where_a_secondary_index_covers(self, monkeypatch):
        ops = [("insert", ROW), ("read", ("A", "G"), ROW)]
        check_heap_ops(ops)
        monkeypatch.setattr(RowHeap, "access_path", _prefix_before_secondary_indexes)
        with pytest.raises(AssertionError, match="disagree"):
            check_heap_ops(ops)

    def test_a_residual_predicate_planned_as_exact(self, monkeypatch):
        ops = [("insert", ROW), ("read", ("A", "V"), {**ROW, "V": 1})]
        check_heap_ops(ops)
        monkeypatch.setattr(RowHeap, "access_path", _every_path_exact)
        with pytest.raises(AssertionError, match="disagree"):
            check_heap_ops(ops)

    def test_a_raw_reinsert_storing_the_row_before_the_unique_check(self, monkeypatch):
        ops = [("insert", ROW), ("delete", 0), ("insert", {**ROW, "A": 1}), ("reinsert", 0)]
        check_heap_ops(ops)
        monkeypatch.setattr(RowHeap, "insert_raw", _insert_raw_storing_first)
        with pytest.raises(AssertionError):
            check_heap_ops(ops)
