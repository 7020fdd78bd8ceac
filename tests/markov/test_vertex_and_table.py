"""Tests for Markov vertices and probability tables."""

import random

import pytest

from repro.errors import ModelError
from repro.markov import (
    ABORT_KEY,
    BEGIN_KEY,
    COMMIT_KEY,
    ProbabilityTable,
    VertexKey,
    VertexKind,
)
from repro.types import PartitionSet


class TestVertexKey:
    def test_query_key_identity(self):
        a = VertexKey.query("Q", 1, PartitionSet.of([0]), PartitionSet.of([0, 1]))
        b = VertexKey.query("Q", 1, PartitionSet.of([0]), PartitionSet.of([1, 0]))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_counter_is_different_state(self):
        a = VertexKey.query("Q", 0, PartitionSet.of([0]), PartitionSet.of([]))
        b = VertexKey.query("Q", 1, PartitionSet.of([0]), PartitionSet.of([]))
        assert a != b

    def test_special_vertices(self):
        assert BEGIN_KEY.kind is VertexKind.BEGIN
        assert COMMIT_KEY.is_terminal
        assert ABORT_KEY.is_terminal
        assert not BEGIN_KEY.is_terminal
        assert not COMMIT_KEY.is_query

    def test_accessed_partitions_union(self):
        key = VertexKey.query("Q", 0, PartitionSet.of([2]), PartitionSet.of([0]))
        assert key.accessed_partitions() == PartitionSet.of([0, 2])

    def test_label_contains_identity(self):
        key = VertexKey.query("CheckStock", 1, PartitionSet.of([0]), PartitionSet.of([1]))
        label = key.label()
        assert "CheckStock" in label and "counter: 1" in label

    def test_sort_token_format_is_pinned(self):
        """The token breaks probability ties between successors, so its
        format decides result bytes; ``__str__``/``label`` may change, this
        may not."""
        key = VertexKey.query("CheckStock", 1, PartitionSet.of([10, 2]), PartitionSet.of([]))
        assert key.sort_token == "CheckStock#1@{2, 10}|prev={}"
        assert [k.sort_token for k in (BEGIN_KEY, COMMIT_KEY, ABORT_KEY)] == \
            ["begin", "commit", "abort"]


class TestProbabilityTable:
    def test_commit_table_is_finished_everywhere(self):
        table = ProbabilityTable.for_commit(3)
        assert table.abort == 0.0
        for partition in range(3):
            assert table.finish_probability(partition) == 1.0
            assert table.access_probability(partition) == 0.0

    def test_abort_table(self):
        table = ProbabilityTable.for_abort(2)
        assert table.abort == 1.0

    def test_weighted_sum_combines_children(self):
        commit = ProbabilityTable.for_commit(2)
        abort = ProbabilityTable.for_abort(2)
        mixed = ProbabilityTable.weighted_sum(2, [(0.75, commit), (0.25, abort)])
        assert mixed.abort == pytest.approx(0.25)
        assert mixed.single_partition == pytest.approx(1.0)

    def test_weighted_sum_empty_children(self):
        table = ProbabilityTable.weighted_sum(2, [])
        assert table.abort == 0.0

    def test_accessed_and_finished_partition_queries(self):
        table = ProbabilityTable(2)
        table.read[0] = 0.9
        table.finish[0] = 0.1
        table.write[1] = 0.2
        assert table.accessed_partitions(0.5) == [0]
        assert table.finished_partitions(0.5) == [1]

    def test_bounds_checked(self):
        with pytest.raises(ModelError):
            ProbabilityTable(0)
        with pytest.raises(ModelError):
            ProbabilityTable(2).read_probability(5)
        with pytest.raises(ModelError):
            ProbabilityTable(2).finish_probability(-1)
        with pytest.raises(ModelError):
            ProbabilityTable(2, read=[0.0, 0.0])

    def test_approx_equal(self):
        table = ProbabilityTable(2, single_partition=0.5, abort=0.1)
        table.write[1] = 0.3
        clone = ProbabilityTable(2, 0.5, 0.1, list(table.read), [0.0, 0.3], list(table.finish))
        assert table.approx_equal(clone)
        clone.write[1] = 0.4
        assert not table.approx_equal(clone)
        assert table.write_probability(1) == 0.3

    def test_access_is_the_larger_of_read_and_write(self):
        table = ProbabilityTable(2, read=[0.2, 0.0], write=[0.6, 0.0], finish=[0.4, 1.0])
        assert table.access_probability(0) == 0.6
        assert table.positive_access() == ((0, 0.6),)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_weighted_sum_is_bitwise_the_per_cell_sum(self, count):
        """The column-wise accumulation must produce the very floats of the
        per-cell ``sum(w * x) / total`` it replaced (left to right from 0)."""
        rng = random.Random(count)
        children = []
        for _ in range(count):
            table = ProbabilityTable(
                4, rng.random(), rng.random(),
                [rng.random() for _ in range(4)],
                [rng.choice([0.0, 1.0, rng.random()]) for _ in range(4)],
                [rng.random() for _ in range(4)],
            )
            children.append((rng.random() if count > 1 else 1.0, table))
        total = sum(w for w, _ in children)

        def cell(read):
            acc = 0
            for w, t in children:
                acc = acc + w * read(t)
            return acc / total

        mixed = ProbabilityTable.weighted_sum(4, children)
        assert mixed.single_partition == cell(lambda t: t.single_partition)
        assert mixed.abort == cell(lambda t: t.abort)
        for p in range(4):
            assert mixed.read_probability(p) == cell(lambda t: t.read[p])
            assert mixed.write_probability(p) == cell(lambda t: t.write[p])
            assert mixed.finish_probability(p) == cell(lambda t: t.finish[p])
        # A lone certain edge shares its child's columns (a column is never
        # set in place); a mix builds its own.
        columns = [(mixed.read, t.read) for _, t in children]
        columns += [(mixed.write, t.write) for _, t in children]
        columns += [(mixed.finish, t.finish) for _, t in children]
        assert all((mine is theirs) == (count == 1) for mine, theirs in columns)
