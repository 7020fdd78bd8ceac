"""Tests for the transient undo log (the OP3 substrate)."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.catalog import Schema, SecondaryIndex, Table, integer, string
from repro.errors import StorageError, UnrecoverableError
from repro.storage import Database, UndoLog
from tests.engine.reference import CapturingUndoLog, replay_effects
from tests.storage.invariants import assert_indexes_match_scan, heap_state


def make_database():
    schema = Schema([Table(
        name="T",
        columns=[integer("ID"), string("NAME")],
        primary_key=["ID"],
        partition_column="ID",
    )])
    return Database(schema, 2)


class TestRollback:
    def test_rollback_undoes_insert_update_delete_in_reverse(self):
        database = make_database()
        heap = database.partition(0).heap("T")
        original_id = heap.insert({"ID": 1, "NAME": "original"})

        log = UndoLog()
        # Insert a new row.
        new_id = heap.insert({"ID": 2, "NAME": "new"})
        log.record_insert("T", 0, new_id)
        # Update the original row.
        before = heap.update(original_id, {"NAME": "changed"})
        log.record_update("T", 0, original_id, before)
        # Delete the original row.
        deleted = heap.delete(original_id)
        log.record_delete("T", 0, original_id, deleted)

        undone = log.rollback(database.partition)
        assert undone == 3
        assert len(heap) == 1
        assert heap.get(original_id)["NAME"] == "original"

    def test_rollback_after_disable_is_unrecoverable(self):
        database = make_database()
        heap = database.partition(0).heap("T")
        log = UndoLog()
        log.disable()
        row_id = heap.insert({"ID": 1, "NAME": "x"})
        log.record_insert("T", 0, row_id)
        assert log.records_skipped == 1
        with pytest.raises(UnrecoverableError):
            log.rollback(database.partition)

    def test_rollback_with_no_writes_after_disable_is_safe(self):
        database = make_database()
        log = UndoLog()
        log.disable()
        assert log.rollback(database.partition) == 0

    def test_clear_discards_records(self):
        log = UndoLog()
        log.record_insert("T", 0, 1)
        log.clear()
        assert len(log) == 0
        assert log.records_written == 0


def make_indexed_heap():
    """Two-column primary key (so prefix indexes appear), a plain and a
    unique secondary index, eight loaded rows."""
    schema = Schema([Table(
        name="T",
        columns=[integer("A"), integer("B"), integer("GROUP_ID"), string("TAG")],
        primary_key=["A", "B"],
        partition_column="A",
        secondary_indexes=[
            SecondaryIndex("IDX_GROUP", ("GROUP_ID",)),
            SecondaryIndex("IDX_TAG", ("TAG",), unique=True),
        ],
    )])
    database = Database(schema, 1)
    heap = database.partition(0).heap("T")
    for n in range(8):
        heap.insert({"A": n // 4, "B": n % 4, "GROUP_ID": n % 3, "TAG": f"t{n}"})
    heap.find({"A": 0})  # build the (A) prefix index before any mutation
    return database, heap


_small = st.integers(0, 5)
_operations = st.one_of(
    st.tuples(st.just("insert"), _small, _small, _small, _small),
    st.tuples(st.just("update"), _small, st.dictionaries(
        st.sampled_from(["A", "B", "GROUP_ID", "TAG"]), _small, min_size=1)),
    st.tuples(st.just("delete"), _small),
)


class TestRollbackKeepsIndexesConsistent:
    @given(script=st.lists(_operations, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_every_index_lookup_equals_a_scan_after_rollback(self, script):
        database, heap = make_indexed_heap()
        loaded = sorted((row_id, heap.get(row_id)) for row_id in heap.row_ids())
        log = UndoLog()
        for operation in script:
            live = sorted(heap.row_ids())
            try:
                if operation[0] == "insert":
                    _, a, b, group, tag = operation
                    row_id = heap.insert({"A": a, "B": b, "GROUP_ID": group, "TAG": f"t{tag}"})
                    log.record_insert("T", 0, row_id)
                elif live and operation[0] == "update":
                    row_id = live[operation[1] % len(live)]
                    assignments = {
                        column: f"t{value}" if column == "TAG" else value
                        for column, value in operation[2].items()
                    }
                    log.record_update("T", 0, row_id, heap.update(row_id, assignments))
                elif live:
                    row_id = live[operation[1] % len(live)]
                    log.record_delete("T", 0, row_id, heap.delete(row_id))
            except StorageError:
                pass  # a duplicate key: rejected whole, nothing to undo
            assert_indexes_match_scan(heap)
        log.rollback(database.partition)
        assert sorted(heap._rows.items()) == loaded
        assert_indexes_match_scan(heap)

    def test_update_rollback_rekeys_only_what_moved(self):
        """Restoring a before-image leaves the entries of untouched keys in
        place: the row keeps its position in a shared bucket."""
        database, heap = make_indexed_heap()
        group_bucket = list(heap._secondary["IDX_GROUP"].prober()((0,)))
        prefix_bucket = list(heap._prefix[1].prober()((0,)))
        row_id = group_bucket[0]
        log = UndoLog()
        log.record_update("T", 0, row_id, heap.update(row_id, {"TAG": "moved"}))
        log.rollback(database.partition)
        assert list(heap._secondary["IDX_GROUP"].prober()((0,))) == group_bucket
        assert list(heap._prefix[1].prober()((0,))) == prefix_bucket
        assert heap.find({"TAG": "t0"}) == [row_id] and heap.find({"TAG": "moved"}) == []


class TestCounters:
    def test_records_written_vs_skipped(self):
        log = UndoLog()
        log.record_insert("T", 0, 1)
        log.disable()
        log.record_insert("T", 0, 2)
        log.record_insert("T", 0, 3)
        assert log.records_written == 1
        assert log.records_skipped == 2
        assert not log.enabled

    def test_enable_resumes_recording(self):
        log = UndoLog(enabled=False)
        log.record_insert("T", 0, 1)
        log.enable()
        log.record_insert("T", 0, 2)
        assert log.records_written == 1
        assert log.records_skipped == 1


class TestWriteEffects:
    """The optional ``effects`` sink: a rollback appends the inverse op of
    every record it undoes, so an aborted attempt's stream replays to no
    net change."""

    def test_a_plain_log_has_no_sink(self):
        log = UndoLog()
        assert log.effects is None
        log.record_insert("T", 0, 1)
        assert log.effects is None

    def test_rollback_appends_the_inverse_of_each_record_newest_first(self):
        database = make_database()
        heap = database.partition(0).heap("T")
        original_id = heap.insert({"ID": 1, "NAME": "original"})
        pristine = {row_id: dict(row) for row_id, row in heap._rows.items()}

        log = CapturingUndoLog()
        new_id = heap.insert({"ID": 2, "NAME": "new"})
        log.record_insert("T", 0, new_id)
        log.effects.append(("i", "T", 0, new_id, heap.get(new_id)))
        before = heap.update(original_id, {"NAME": "changed"})
        log.record_update("T", 0, original_id, before)
        log.effects.append(("u", "T", 0, original_id, {"NAME": "changed"}))
        forward = list(log.effects)

        assert log.rollback(database.partition) == 2
        assert log.effects[len(forward):] == [
            ("u", "T", 0, original_id, {"ID": 1, "NAME": "original"}),
            ("d", "T", 0, new_id),
        ]
        assert heap._rows == pristine

        replayed = make_database()
        target = replayed.partition(0).heap("T")
        target.insert({"ID": 1, "NAME": "original"})
        replay_effects(replayed, log.effects)
        assert heap_state(target) == heap_state(heap)

    def test_a_refused_rollback_emits_nothing(self):
        database = make_database()
        heap = database.partition(0).heap("T")
        log = CapturingUndoLog()
        log.record_insert("T", 0, heap.insert({"ID": 1, "NAME": "x"}))
        log.disable()
        log.record_insert("T", 0, heap.insert({"ID": 2, "NAME": "y"}))
        with pytest.raises(UnrecoverableError):
            log.rollback(database.partition)
        assert log.effects == []
        assert len(heap) == 2
