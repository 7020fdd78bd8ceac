"""Golden execution oracle: what every attempt did and what it left behind.

``golden_execution.json`` was recorded from the commit *before* the
per-statement path was compiled into per-procedure step tables.  How a
statement is resolved, bound and applied may change; which rows it returns,
which partitions it touches, what the monitor declares finished or escalates,
how many undo records it writes or skips, and every row the run leaves in the
database may not.  The file holds digests only: per benchmark, a sha256 over
the ordered :class:`AttemptResult` stream (restarted attempts included) and
one over the final database (rows by partition / table / row id plus each
heap's ``_next_row_id``).  Each benchmark runs twice in one process, and
the second run must reproduce the same two digests: state that leaks from
one session into the next, such as a process-global counter, shows there.

Re-record (only in a change that means to alter what execution computes)::

    PYTHONPATH=src:. python tests/engine/test_golden_execution.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.session import Cluster, ClusterSpec
from tests.conftest import trained

GOLDEN = Path(__file__).with_name("golden_execution.json")
BENCHMARKS = ("tatp", "tpcc", "smallbank", "auctionmark")
TRANSACTIONS = 400


def attempt_bytes(attempt) -> bytes:
    """Every ``AttemptResult`` field, in a stable textual form."""
    return repr((
        attempt.outcome.value,
        attempt.procedure,
        attempt.parameters,
        attempt.base_partition,
        attempt.touched_partitions.partitions,
        [
            (i.statement, i.parameters, i.partitions.partitions, i.counter,
             i.query_type.value)
            for i in attempt.invocations
        ],
        attempt.return_value,
        attempt.abort_reason,
        attempt.mispredicted_partition,
        attempt.undo_records_written,
        attempt.undo_records_skipped,
        sorted(attempt.finished_partitions),
        sorted(attempt.escalated_partitions),
    )).encode("utf-8")


def database_digest(database) -> str:
    digest = hashlib.sha256()
    for store in database.partitions():
        for table in sorted(store.table_names()):
            heap = store.heap(table)
            digest.update(repr((store.partition_id, table, heap._next_row_id)).encode())
            for row_id in sorted(heap.row_ids()):
                digest.update(repr((row_id, sorted(heap.get(row_id).items()))).encode())
    return digest.hexdigest()


def run_execution(benchmark: str) -> dict:
    spec = ClusterSpec(
        benchmark=benchmark, num_partitions=16, strategy="houdini",
        trace_transactions=300, seed=0, learning=True,
    )
    session = Cluster.open(spec, artifacts=trained(benchmark, 16, 300, 0))
    stream = hashlib.sha256()
    counts = {"transactions": 0, "attempts": 0}
    # Every logical transaction reaches the strategy's completion callback
    # with its full attempt list.
    strategy = session.strategy
    notify = strategy.on_transaction_complete

    def capture(record):
        counts["transactions"] += 1
        for attempt in record.attempts:
            counts["attempts"] += 1
            stream.update(attempt_bytes(attempt))
        return notify(record)

    strategy.on_transaction_complete = capture
    try:
        session.run_for(txns=TRANSACTIONS)
    finally:
        session.close()
    return {
        **counts,
        "attempt_stream": stream.hexdigest(),
        "database": database_digest(session.simulator.database),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", ("first", "same-seed rerun"))
@pytest.mark.parametrize("name", BENCHMARKS)
def test_execution_matches_parent(name, run, golden):
    assert run_execution(name) == golden[name]


def test_golden_exercises_restarts(golden):
    assert set(golden) == set(BENCHMARKS)
    for name, entry in golden.items():
        assert entry["transactions"] == TRANSACTIONS, name
    assert golden["tpcc"]["attempts"] > TRANSACTIONS, "the case must actually restart"


if __name__ == "__main__":
    recorded = {name: run_execution(name) for name in BENCHMARKS}
    for name in BENCHMARKS:
        assert run_execution(name) == recorded[name], name
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN}")
