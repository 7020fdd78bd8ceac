"""Property-based tests for storage rollback and Markov-model invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Schema, Table, integer
from repro.markov import MarkovModel
from repro.storage import Database, UndoLog
from tests.conftest import add_path, to_steps

# ----------------------------------------------------------------------
# Storage: applying a random batch of operations and rolling back always
# restores the original table contents.
# ----------------------------------------------------------------------
operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=0, max_value=19),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=30,
)


def snapshot(database):
    heap = database.partition(0).heap("T")
    return sorted(tuple(sorted(row.items())) for row in heap.rows())


class TestUndoProperties:
    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_rollback_restores_exact_state(self, ops):
        schema = Schema([Table(
            name="T", columns=[integer("ID"), integer("V")], primary_key=["ID"],
            partition_column="ID",
        )])
        database = Database(schema, 1)
        heap = database.partition(0).heap("T")
        for key in range(10):
            heap.insert({"ID": key, "V": 0})
        before = snapshot(database)

        log = UndoLog()
        for kind, key, value in ops:
            row_ids = heap.find({"ID": key})
            if kind == "insert":
                if row_ids:
                    continue
                row_id = heap.insert({"ID": key, "V": value})
                log.record_insert("T", 0, row_id)
            elif kind == "update":
                if not row_ids:
                    continue
                previous = heap.update(row_ids[0], {"V": value})
                log.record_update("T", 0, row_ids[0], previous)
            else:
                if not row_ids:
                    continue
                previous = heap.delete(row_ids[0])
                log.record_delete("T", 0, row_ids[0], previous)

        log.rollback(database.partition)
        assert snapshot(database) == before


# ----------------------------------------------------------------------
# Markov models: random execution paths always produce a consistent model.
# ----------------------------------------------------------------------
path_strategy = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C"]),
        st.integers(min_value=0, max_value=3),   # partition
        st.booleans(),                            # write?
    ),
    min_size=1,
    max_size=8,
)


class TestMarkovProperties:
    @given(st.lists(st.tuples(path_strategy, st.booleans()), min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_and_tables_stay_valid(self, transactions):
        model = MarkovModel("prop", 4)
        for raw_path, aborted in transactions:
            add_path(model, to_steps(raw_path), aborted=aborted)
        model.process()

        assert model.transactions_observed == len(transactions)
        for vertex in model.vertices():
            edges = model.edges_from(vertex.key)
            if edges:
                total = sum(edge.probability for edge in edges)
                assert abs(total - 1.0) < 1e-6
            if vertex.table is not None:
                assert 0.0 <= vertex.table.abort <= 1.0 + 1e-9
                assert 0.0 <= vertex.table.single_partition <= 1.0 + 1e-9
                for partition in range(4):
                    for value in (
                        vertex.table.read_probability(partition),
                        vertex.table.write_probability(partition),
                        vertex.table.finish_probability(partition),
                    ):
                        assert -1e-9 <= value <= 1.0 + 1e-9

    @given(st.lists(st.tuples(path_strategy, st.booleans()), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_begin_abort_probability_matches_observed_rate(self, transactions):
        model = MarkovModel("prop", 4)
        aborted_count = 0
        for raw_path, aborted in transactions:
            add_path(model, to_steps(raw_path), aborted=aborted)
            aborted_count += aborted
        model.process()
        observed_rate = aborted_count / len(transactions)
        table = model.probability_table(model.begin)
        assert abs(table.abort - observed_rate) < 1e-6
