"""Counted gate: set-up leaves almost nothing for the cycle collector to scan.

A TPC-C set-up builds tens of thousands of long-lived objects, and every
container among them that the cycle collector tracks is scanned again on each
full collection — none of which ever finds garbage there.  Unique indexes
therefore map keys straight to row ids, and a trace stores its queries as
plain tuples of atomic values, which CPython stops tracking.  The parent of
the commit that introduced this gate read 15,727 tracked objects added by
``build_benchmark`` and 33.46 per recorded transaction, with every recorded
query tracked (TPC-C, 16 partitions, seed 0).

Counts are taken after two full collections: a tuple is untracked when a
collection finds only untracked items in it, so an outer tuple examined
before its inner ones needs the second pass.  They do not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import gc

import pytest

from repro.session import build_benchmark, record_trace

PARTITIONS = 16
SEED = 0
TRANSACTIONS = 1500


def tracked_objects() -> int:
    gc.collect()
    gc.collect()
    return len(gc.get_objects())


@pytest.fixture(scope="module")
def footprint():
    start = tracked_objects()
    instance = build_benchmark("tpcc", PARTITIONS, seed=SEED)
    built = tracked_objects()
    trace = record_trace(instance, TRANSACTIONS)
    recorded = tracked_objects()
    return built - start, (recorded - built) / TRANSACTIONS, trace


class TestSetUpFootprint:
    def test_build_benchmark_adds_few_tracked_objects(self, footprint):
        added, _, _ = footprint
        assert added <= 3000, added

    def test_record_trace_adds_few_tracked_objects_per_record(self, footprint):
        _, per_record, _ = footprint
        assert per_record <= 2.5, per_record

    def test_no_recorded_query_is_tracked(self, footprint):
        _, _, trace = footprint
        queries = [query for record in trace for query in record.queries]
        assert queries and not any(gc.is_tracked(query) for query in queries)
