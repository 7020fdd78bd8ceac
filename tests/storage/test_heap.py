"""Tests for the per-partition row heap."""

import pytest

from repro.catalog import SecondaryIndex, Table, integer, string
from repro.errors import DuplicateKeyError, StorageError
from repro.storage import RowHeap
from tests.storage.invariants import assert_indexes_match_scan, heap_state


def make_heap():
    table = Table(
        name="T",
        columns=[integer("ID"), string("NAME"), integer("GROUP_ID"), integer("V", nullable=True)],
        primary_key=["ID"],
        partition_column="ID",
        secondary_indexes=[SecondaryIndex("IDX_GROUP", ("GROUP_ID",))],
    )
    return RowHeap(table)


class TestInsert:
    def test_insert_and_get(self):
        heap = make_heap()
        row_id = heap.insert({"ID": 1, "NAME": "a", "GROUP_ID": 5})
        assert heap.get(row_id)["NAME"] == "a"
        assert len(heap) == 1

    def test_duplicate_primary_key(self):
        heap = make_heap()
        heap.insert({"ID": 1, "NAME": "a", "GROUP_ID": 5})
        with pytest.raises(DuplicateKeyError):
            heap.insert({"ID": 1, "NAME": "b", "GROUP_ID": 6})

    def test_insert_raw_restores_row_id(self):
        heap = make_heap()
        row_id = heap.insert({"ID": 1, "NAME": "a", "GROUP_ID": 5})
        row = heap.delete(row_id)
        heap.insert_raw(row, row_id)
        assert heap.get(row_id)["ID"] == 1
        with pytest.raises(StorageError):
            heap.insert_raw(row, row_id)


def make_subscriber_heap():
    """TATP's SUBSCRIBER in miniature: a primary key plus a *unique* secondary index."""
    table = Table(
        name="SUBSCRIBER",
        columns=[integer("S_ID"), string("SUB_NBR"), integer("VLR_LOCATION")],
        primary_key=["S_ID"],
        partition_column="S_ID",
        secondary_indexes=[SecondaryIndex("IDX_SUBSCRIBER_NBR", ("SUB_NBR",), unique=True)],
    )
    heap = RowHeap(table)
    for s_id in range(3):
        heap.insert({"S_ID": s_id, "SUB_NBR": f"nbr-{s_id}", "VLR_LOCATION": 0})
    return heap


class TestUniqueIndexViolationIsAllOrNothing:
    """A write a unique index rejects must leave rows, ``pk_rows`` and every
    index lookup exactly as they were — no phantom row, no unindexed row."""

    def assert_untouched(self, heap, before):
        assert heap_state(heap) == before
        assert len(heap) == 3
        assert heap.pk_rows((7,)) == []
        assert [row["SUB_NBR"] for row in heap.pk_rows((2,))] == ["nbr-2"]
        assert heap.find({"SUB_NBR": "nbr-1"}) == heap.find({"S_ID": 1})
        assert heap.find({"SUB_NBR": "nbr-2"}) == heap.find({"S_ID": 2})
        assert_indexes_match_scan(heap)

    def test_rejected_insert_stores_nothing(self):
        heap = make_subscriber_heap()
        before = heap_state(heap)
        with pytest.raises(StorageError, match="unique index violation"):
            heap.insert({"S_ID": 7, "SUB_NBR": "nbr-1", "VLR_LOCATION": 0})
        self.assert_untouched(heap, before)

    def test_rejected_update_changes_nothing(self):
        heap = make_subscriber_heap()
        before = heap_state(heap)
        (row_id,) = heap.find({"S_ID": 2})
        with pytest.raises(StorageError, match="unique index violation"):
            heap.update(row_id, {"SUB_NBR": "nbr-1", "VLR_LOCATION": 9})
        self.assert_untouched(heap, before)

    def test_rejected_primary_key_move_changes_nothing(self):
        heap = make_subscriber_heap()
        heap.find({"S_ID": 0, "VLR_LOCATION": 0})  # no prefix index on a 1-column key
        before = heap_state(heap)
        (row_id,) = heap.find({"S_ID": 2})
        with pytest.raises(StorageError, match="unique index violation"):
            heap.update(row_id, {"S_ID": 1, "SUB_NBR": "fresh"})
        self.assert_untouched(heap, before)

    def test_rejected_raw_reinsert_changes_nothing(self):
        heap = make_subscriber_heap()
        (row_id,) = heap.find({"S_ID": 2})
        image = heap.delete(row_id)
        heap.insert({"S_ID": 7, "SUB_NBR": "nbr-2", "VLR_LOCATION": 0})
        before = heap_state(heap)
        # The secondary key was taken again; the primary key is free.
        with pytest.raises(StorageError, match="unique index violation"):
            heap.insert_raw(image, row_id)
        assert heap_state(heap) == before
        assert len(heap) == 3
        assert heap.pk_rows((2,)) == []
        assert_indexes_match_scan(heap)

    def test_update_keeping_its_own_unique_key_is_not_a_violation(self):
        heap = make_subscriber_heap()
        (row_id,) = heap.find({"S_ID": 2})
        heap.update(row_id, {"SUB_NBR": "nbr-2", "VLR_LOCATION": 5})
        assert heap.get(row_id)["VLR_LOCATION"] == 5
        assert_indexes_match_scan(heap)


class TestFindAndSelect:
    def test_find_uses_primary_key(self):
        heap = make_heap()
        ids = [heap.insert({"ID": i, "NAME": f"n{i}", "GROUP_ID": i % 2}) for i in range(10)]
        assert heap.find({"ID": 3}) == [ids[3]]

    def test_find_uses_secondary_index(self):
        heap = make_heap()
        for i in range(10):
            heap.insert({"ID": i, "NAME": f"n{i}", "GROUP_ID": i % 3})
        assert sorted(heap.find({"GROUP_ID": 1})) == sorted(
            rid for rid in heap.row_ids() if heap.get(rid)["GROUP_ID"] == 1
        )

    def test_find_full_scan_with_residual_predicate(self):
        heap = make_heap()
        for i in range(6):
            heap.insert({"ID": i, "NAME": "same", "GROUP_ID": 0, "V": i})
        assert len(heap.find({"NAME": "same", "V": 3})) == 1

    def test_select_projection_order_limit(self):
        heap = make_heap()
        for i in range(5):
            heap.insert({"ID": i, "NAME": f"n{i}", "GROUP_ID": 0, "V": 10 - i})
        rows = heap.select({"GROUP_ID": 0}, output_columns=("ID",), order_by=("V", True), limit=2)
        assert rows == [{"ID": 0}, {"ID": 1}]

    def test_empty_predicate_returns_all(self):
        heap = make_heap()
        for i in range(3):
            heap.insert({"ID": i, "NAME": "x", "GROUP_ID": 0})
        assert len(heap.find({})) == 3


class TestUpdateDelete:
    def test_update_returns_before_image(self):
        heap = make_heap()
        row_id = heap.insert({"ID": 1, "NAME": "a", "GROUP_ID": 5})
        before = heap.update(row_id, {"NAME": "b"})
        assert before["NAME"] == "a"
        assert heap.get(row_id)["NAME"] == "b"

    def test_update_reindexes_secondary(self):
        heap = make_heap()
        row_id = heap.insert({"ID": 1, "NAME": "a", "GROUP_ID": 5})
        heap.update(row_id, {"GROUP_ID": 9})
        assert heap.find({"GROUP_ID": 9}) == [row_id]
        assert heap.find({"GROUP_ID": 5}) == []

    def test_update_primary_key_reindexes(self):
        heap = make_heap()
        row_id = heap.insert({"ID": 1, "NAME": "a", "GROUP_ID": 5})
        heap.update(row_id, {"ID": 99})
        assert heap.find({"ID": 99}) == [row_id]
        assert heap.find({"ID": 1}) == []

    def test_delete_removes_from_indexes(self):
        heap = make_heap()
        row_id = heap.insert({"ID": 1, "NAME": "a", "GROUP_ID": 5})
        deleted = heap.delete(row_id)
        assert deleted["ID"] == 1
        assert len(heap) == 0
        assert heap.find({"GROUP_ID": 5}) == []
        with pytest.raises(StorageError):
            heap.delete(row_id)

    def test_update_missing_row_raises(self):
        with pytest.raises(StorageError):
            make_heap().update(0, {"NAME": "x"})

    def test_rows_iterates_copies(self):
        heap = make_heap()
        heap.insert({"ID": 1, "NAME": "a", "GROUP_ID": 5})
        for row in heap.rows():
            row["NAME"] = "mutated"
        assert heap.get(0)["NAME"] == "a"
