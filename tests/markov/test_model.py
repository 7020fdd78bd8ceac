"""Tests for the Markov model graph, construction and processing phases."""

import pytest

from repro.errors import ModelError
from repro.markov import MarkovModel, PathStep, VertexKey
from repro.types import PartitionSet, QueryType
from tests.conftest import add_path, edge_distribution


def step(name, partitions, previous, counter=0, write=False):
    return PathStep(
        statement=name,
        query_type=QueryType.WRITE if write else QueryType.READ,
        partitions=PartitionSet.of(partitions),
        previous=PartitionSet.of(previous),
        counter=counter,
    )


def build_simple_model(aborts=0, commits=9):
    """A two-query procedure: Read A (partition 0) then Write B (partition 0)."""
    model = MarkovModel("proc", 2)
    for _ in range(commits):
        add_path(model, [
            step("A", [0], []),
            step("B", [0], [0], write=True),
        ], aborted=False)
    for _ in range(aborts):
        add_path(model, [step("A", [0], [])], aborted=True)
    model.process()
    return model


class TestConstruction:
    def test_vertices_and_edges_created(self):
        model = build_simple_model()
        # begin, commit, abort + two query states.
        assert model.vertex_count() == 5
        assert model.edge_count() == 3
        assert model.transactions_observed == 9

    def test_counter_distinguishes_repeated_queries(self):
        model = MarkovModel("loop", 2)
        add_path(model, [
            step("Q", [0], [], counter=0),
            step("Q", [0], [0], counter=1),
        ], aborted=False)
        model.process()
        assert model.vertex_count() == 5

    def test_edge_probabilities_sum_to_one(self):
        model = build_simple_model(aborts=3, commits=9)
        outgoing = model.successors(
            VertexKey.query("A", 0, PartitionSet.of([0]), PartitionSet.of([]))
        )
        assert sum(p for _, p in outgoing) == pytest.approx(1.0)


class TestProcessing:
    def test_abort_probability_propagates_to_begin(self):
        model = build_simple_model(aborts=1, commits=9)
        table = model.probability_table(model.begin)
        assert table.abort == pytest.approx(0.1)

    def test_write_probability_reaches_earlier_states(self):
        model = build_simple_model()
        key_a = VertexKey.query("A", 0, PartitionSet.of([0]), PartitionSet.of([]))
        table = model.probability_table(key_a)
        # A reads partition 0 itself and B writes it later.
        assert table.read_probability(0) == 1.0
        assert table.write_probability(0) == 1.0
        assert table.finish_probability(0) == 0.0
        # Partition 1 is never touched.
        assert table.access_probability(1) == 0.0
        assert table.finish_probability(1) == 1.0

    def test_single_partition_probability(self):
        model = MarkovModel("mixed", 2)
        # Half the transactions stay on partition 0, half go to partition 1.
        for _ in range(5):
            add_path(model, [step("A", [0], []), step("B", [0], [0])], aborted=False)
        for _ in range(5):
            add_path(model, [step("A", [0], []), step("B", [1], [0])], aborted=False)
        model.process()
        table = model.probability_table(model.begin)
        assert table.single_partition == pytest.approx(0.5)

    def test_expected_remaining_queries(self):
        model = build_simple_model()
        assert model.vertex(model.begin).expected_remaining_queries == pytest.approx(2.0)

    def test_process_gives_every_vertex_its_table(self):
        model = build_simple_model(aborts=2, commits=7)
        for vertex in model.vertices():
            table = model.probability_table(vertex.key)
            assert table.approx_equal(model._table_for(vertex.key))

    def test_tables_require_processing(self):
        model = MarkovModel("p", 2)
        add_path(model, [step("A", [0], [])], aborted=False)
        with pytest.raises(ModelError):
            model.probability_table(model.begin)


class TestRuntimeLearning:
    def test_placeholder_marks_model_stale_but_usable(self):
        model = build_simple_model()
        assert not model.stale
        new_key = VertexKey.query("C", 0, PartitionSet.of([1]), PartitionSet.of([0]))
        model.add_placeholder(new_key, QueryType.READ)
        assert model.stale
        assert model.processed  # existing tables stay usable
        assert model.find_vertex(new_key) is not None

    def test_logged_transitions_accumulate_counts(self):
        model = build_simple_model()
        key_a = VertexKey.query("A", 0, PartitionSet.of([0]), PartitionSet.of([]))
        before = model.edge(model.begin, key_a).hits
        model.log_transitions([(model.begin, key_a)])
        assert model.edge(model.begin, key_a).hits == before + 1
        model.process()
        assert not model.stale

    def test_recompute_gives_placeholders_tables_and_leaves_none_stale(self):
        model = build_simple_model()
        key_a = VertexKey.query("A", 0, PartitionSet.of([0]), PartitionSet.of([]))
        key_c = VertexKey.query("C", 0, PartitionSet.of([1]), PartitionSet.of([0]))
        model.log_transitions([(model.begin, key_a), (key_a, key_c), (key_c, model.commit)] * 9)
        assert model.find_vertex(key_c).table is None
        model.process()
        for vertex in model.vertices():
            assert vertex.table is not None, vertex.key
            assert vertex.table.approx_equal(model._table_for(vertex.key)), vertex.key
        # The new branch reaches partition 1 half the time.
        assert model.probability_table(model.begin).access_probability(1) == pytest.approx(0.5)

    def test_edge_distribution(self):
        model = build_simple_model(aborts=1, commits=3)
        key_a = VertexKey.query("A", 0, PartitionSet.of([0]), PartitionSet.of([]))
        distribution = edge_distribution(model, key_a)
        # From A, transactions either executed B next or aborted directly.
        assert len(distribution) == 2
        assert model.abort in distribution
        assert sum(distribution.values()) == pytest.approx(1.0)


class TestModelVersion:
    def test_count_only_visits_do_not_move_the_version(self):
        model = MarkovModel("p", 4)
        add_path(model, [step("Q", [0], [])], aborted=False)
        model.process()
        version = model.version
        # Re-recording a known path only increments counters: every edge and
        # vertex already exists and no probability changes until process().
        key = step("Q", [0], []).key()
        model.log_transitions([(model.begin, key), (key, model.commit)])
        assert model.version == version

    def test_new_edges_placeholders_and_process_move_the_version(self):
        model = MarkovModel("p", 4)
        add_path(model, [step("Q", [0], [])], aborted=False)
        model.process()
        version = model.version
        other = step("Q", [1], []).key()
        model.log_transitions([(model.begin, other), (other, model.commit)])
        assert model.version > version
        version = model.version
        model.process()
        assert model.version > version

    def test_bulk_log_matches_singles(self):
        """Logging an attempt's transitions in one call is behaviourally
        identical to logging them one at a time."""
        a = MarkovModel("p", 4)
        b = MarkovModel("p", 4)
        for model in (a, b):
            add_path(
                model,
                [step("A", [0], []), step("B", [0], [0])], aborted=False
            )
            model.process()
        first = step("A", [0], []).key()
        second = step("B", [1], [0]).key()  # new vertex: a placeholder path
        transitions = [
            (a.begin, first), (first, second), (second, a.commit),
            (a.begin, first), (first, a.abort),
        ]
        a.log_transitions(transitions)
        for source, target in transitions:
            b.log_transitions([(source, target)])
        assert a.vertex_count() == b.vertex_count()
        assert a.edge_count() == b.edge_count()
        for vertex in a.vertices():
            assert b.vertex(vertex.key).hits == vertex.hits
        for source in (a.begin, first, second):
            mine = {e.target: e.hits for e in a.edges_from(source)}
            theirs = {e.target: e.hits for e in b.edges_from(source)}
            assert mine == theirs
        assert a.stale and b.stale
