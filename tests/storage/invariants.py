"""Heap invariants shared by the storage, undo-log and execution tests."""

from __future__ import annotations


def heap_state(heap) -> tuple:
    """Everything a heap holds, index bucket order included."""
    return (
        heap._next_row_id,
        dict(heap._rows),
        [
            (index.columns, {key: list(row_ids) for key, row_ids in index.items()})
            for index in heap._indexes
        ],
    )


def assert_indexes_match_scan(heap) -> None:
    """Every index lookup returns exactly what a scan of the rows finds."""
    for index in heap._indexes:
        scanned: dict[tuple, list[int]] = {}
        for row_id, row in heap._rows.items():
            scanned.setdefault(tuple(row[c] for c in index.columns), []).append(row_id)
        assert set(index.keys()) == set(scanned), (heap.table.name, index.columns)
        entries = dict(index.items())
        for key, row_ids in scanned.items():
            assert sorted(entries[key]) == sorted(row_ids), (heap.table.name, index.columns, key)
        assert len(index) == len(heap), (heap.table.name, index.columns)
