"""The undo log's write-effect sink replays to the database it describes.

``UndoLog.effects`` promises one replayable op per physical write, and one
inverse op per record a rollback undoes, so that an attempt's stream
replays to its net effect.  ``tests/property/test_property_execution.py``
compares the engine's stream with the reference executor's; this test
checks the promise itself: applying the stream of a run of real benchmark
attempts to a pristine copy of the database rebuilds the engine's
database, row ids and index bucket order included.  (The inverse ops of a
rollback are covered in ``tests/storage/test_undo_log.py``.)
Prefix indexes that reads build on first use exist on the engine's side
only; they are derived, so only the indexes both sides hold are compared.
"""

from __future__ import annotations

import pickle

import pytest

from repro import session as api
from repro.engine import ExecutionEngine
from repro.engine.engine import AttemptOutcome
from tests.engine.reference import CapturingUndoLog, replay_effects
from tests.storage.invariants import assert_indexes_match_scan, heap_state

PARTITIONS = 4
ATTEMPTS = 120
SCALE = {
    "tatp": {"subscribers_per_partition": 10},
    "tpcc": {"customers_per_district": 5, "items": 30, "initial_orders_per_district": 3,
             "districts_per_warehouse": 2},
    "smallbank": {"accounts_per_partition": 10, "hotspot_accounts": 4},
    "auctionmark": {"users_per_partition": 6},
}


def database_state(database, index_columns=None):
    """Per heap: next row id, rows and ``{index columns: buckets}``, keeping
    only the indexes ``index_columns`` names for that heap (default: all)."""
    state = {}
    for store in database.partitions():
        for name in sorted(store.table_names()):
            next_row_id, rows, indexes = heap_state(store.heap(name))
            keep = None if index_columns is None else index_columns[store.partition_id, name]
            state[store.partition_id, name] = (next_row_id, rows, {
                columns: buckets for columns, buckets in indexes
                if keep is None or columns in keep
            })
    return state


@pytest.mark.parametrize("bench", sorted(SCALE))
def test_replaying_the_effects_rebuilds_the_database(bench):
    instance = api.build_benchmark(
        bench, PARTITIONS, seed=5, config_overrides=SCALE[bench]
    )
    pristine = pickle.loads(pickle.dumps(instance.database))
    engine = ExecutionEngine(instance.catalog, instance.database)
    effects, outcomes = [], set()
    for request in instance.generator.generate(ATTEMPTS):
        log = CapturingUndoLog()
        result = engine.execute_attempt(request, undo_log=log)
        outcomes.add(result.outcome)
        effects.extend(log.effects)
    assert AttemptOutcome.COMMITTED in outcomes
    assert effects, "the run must write"
    declared = {key: set(indexes) for key, (_, _, indexes) in database_state(pristine).items()}
    assert database_state(pristine) != database_state(instance.database, declared)
    replay_effects(pristine, effects)
    assert database_state(pristine) == database_state(instance.database, declared)
    for store in pristine.partitions():
        for name in store.table_names():
            assert_indexes_match_scan(store.heap(name))
