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
  every read path (``find`` through primary, unique, non-unique and lazily
  built prefix indexes, ``select``, ``pk_row_ids``, ``pk_rows``), and
  transactions of writes under an :class:`~repro.storage.UndoLog` that
  commit or roll back.

Every step must agree on the result or the exception's type and message,
and on the heap afterwards, index bucket order included.  A write iterating
``pk_row_ids`` (as the executor's primary-key UPDATE / DELETE does) must find
the ids it holds unchanged by that write, and a rollback must restore the
rows with every index equal to a scan.

The property is proven by seeded mutations it must catch
(``TestMutationsAreCaught``).  Tier-1 runs the default budget; CI's
``training-smoke`` job runs ``--hypothesis-profile=long`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.catalog import SecondaryIndex, Table, integer
from repro.errors import StorageError
from repro.storage import HashIndex, RowHeap, UndoLog, UniqueIndex
from repro.storage import heap as heap_module
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
#: Predicate column sets: primary key, its prefix (a lazily built index),
#: prefix plus a residual column, unique, non-unique, both, none.
PREDICATES = (("A", "B"), ("A",), ("A", "V"), ("U",), ("G",), ("U", "G"), ())

small = st.integers(0, 3)
rows = st.fixed_dictionaries({column: small for column in COLUMNS})
assignments = st.dictionaries(st.sampled_from(COLUMNS), small, min_size=1, max_size=3)
picks = st.integers(0, 20)
writes = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.sampled_from(("update", "pk_update")), picks, assignments),
    st.tuples(st.sampled_from(("delete", "pk_delete")), picks),
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
def index_view(index) -> tuple:
    keys = list(index.keys())
    return (
        len(index),
        [(key, list(row_ids)) for key, row_ids in index.items()],
        [(index.contains(key), index.lookup(key), list(index.lookup_readonly(key)))
         for key in [*keys, (99,)]],
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


def pk_write(heap: RowHeap, key, values, log: UndoLog, *, live: bool):
    """The executor's primary-key UPDATE / DELETE.

    ``live`` iterates ``pk_row_ids``' result itself and requires the writes
    to leave it unchanged; the reference heap's caller iterates a copy.
    """
    held = heap.pk_row_ids(key)
    ids = tuple(held)
    for row_id in held if live else ids:
        write_row(heap, row_id, values, log)
    if live:
        assert tuple(held) == ids, f"pk_row_ids{key} changed under a write: {ids} -> {tuple(held)}"
    return ids


def apply_write(heap: RowHeap, op, log: UndoLog, *, live: bool):
    kind = op[0]
    if kind == "insert":
        row_id = heap.insert(dict(op[1]))
        log.record_insert("T", 0, row_id)
        return row_id
    row_ids = sorted(heap.row_ids())
    # An empty heap: a row id that is not there.
    row_id = row_ids[op[1] % len(row_ids)] if row_ids else op[1]
    values = op[2] if kind.endswith("update") else None
    if kind.startswith("pk_"):
        row = heap.row(row_id) if row_ids else {"A": op[1], "B": op[1]}
        return pk_write(heap, (row["A"], row["B"]), values, log, live=live)
    return write_row(heap, row_id, values, log)


def read_all(heap: RowHeap, columns, values) -> tuple:
    predicate = {column: values[column] for column in columns}
    key = (values["A"], values["B"])
    return (
        heap.find(predicate),
        list(heap._find_readonly(predicate)),
        heap.select(predicate, order_by=("V", True), limit=3),
        list(heap.pk_row_ids(key)),
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
            self.both(f"read {op[1]}", lambda heap, live: read_all(heap, op[1], op[2]))
        elif kind == "reinsert":
            if self.deleted:
                row_id, image = self.deleted[op[1] % len(self.deleted)]
                result = self.both(f"insert_raw({row_id})",
                                   lambda heap, live: heap.insert_raw(dict(image), row_id))
                self.events.append(f"reinsert: {result[0]}")
        elif kind == "txn":
            self.transaction(op[1], commit=op[2])
        else:
            result = self.both(
                repr(op), lambda heap, live: apply_write(heap, op, UndoLog(), live=live)
            )
            self.events.append(f"{kind}: {result[0]}")
        after = snapshot(self.heaps[True])
        self.deleted.extend((row_id, row) for row_id, row in before.items() if row_id not in after)
        agree(f"heap state after {op!r}", heap_state(self.heaps[True]), heap_state(self.heaps[False]))
        assert_indexes_match_scan(self.heaps[True])

    def transaction(self, ops, *, commit: bool) -> None:
        pristine = {live: snapshot(heap) for live, heap in self.heaps.items()}
        logs = {True: UndoLog(), False: UndoLog()}
        for op in ops:
            self.both(repr(op), lambda heap, live: apply_write(heap, op, logs[live], live=live))
        self.events.append(
            f"txn of {len(logs[True])} logged writes: {'commit' if commit else 'rollback'}"
        )
        if commit:
            return
        self.both("rollback", lambda heap, live: logs[live].rollback(
            lambda partition_id: SimpleNamespace(heap=lambda name: heap)
        ))
        for live, heap in self.heaps.items():
            assert snapshot(heap) == pristine[live], "rollback did not restore the rows"


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


class _ListBucketUniqueIndex(reference.HashIndex):
    """Unique keys in list buckets, ``pk_row_ids`` handing out the live one."""

    def __init__(self, columns):
        super().__init__(columns, unique=True)

    def get(self, key):
        bucket = self._entries.get(key)
        return bucket[0] if bucket else None


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

    def test_pk_row_ids_handing_out_a_live_bucket(self, monkeypatch):
        ops = [("insert", ROW), ("pk_update", 0, {"A": 2}), ("pk_delete", 0)]
        check_heap_ops(ops)
        monkeypatch.setattr(heap_module, "UniqueIndex", _ListBucketUniqueIndex)
        with pytest.raises(AssertionError, match="changed under a write"):
            check_heap_ops(ops)

    def test_a_raw_reinsert_storing_the_row_before_the_unique_check(self, monkeypatch):
        ops = [("insert", ROW), ("delete", 0), ("insert", {**ROW, "A": 1}), ("reinsert", 0)]
        check_heap_ops(ops)
        monkeypatch.setattr(RowHeap, "insert_raw", _insert_raw_storing_first)
        with pytest.raises(AssertionError):
            check_heap_ops(ops)
