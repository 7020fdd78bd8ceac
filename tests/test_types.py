"""Tests for the shared types (PartitionSet, requests, invocations)."""

from repro.types import (
    EMPTY_PARTITION_SET,
    PartitionSet,
    ProcedureRequest,
    QueryType,
)


class TestPartitionSet:
    def test_of_sorts_and_deduplicates(self):
        assert PartitionSet.of([3, 1, 3, 2]).partitions == (1, 2, 3)

    def test_union(self):
        union = PartitionSet.of([1]).union(PartitionSet.of([2, 1]))
        assert union.partitions == (1, 2)

    def test_contains_and_membership(self):
        partitions = PartitionSet.of([0, 5])
        assert partitions.contains(5)
        assert not partitions.contains(3)
        assert 0 in list(partitions)

    def test_issuperset(self):
        assert PartitionSet.of([1, 2, 3]).issuperset(PartitionSet.of([2]))
        assert not PartitionSet.of([1]).issuperset(PartitionSet.of([2]))

    def test_hashable_and_equal(self):
        assert PartitionSet.of([2, 1]) == PartitionSet.of([1, 2])
        assert hash(PartitionSet.of([2, 1])) == hash(PartitionSet.of([1, 2]))

    def test_empty_set_is_falsy(self):
        assert not EMPTY_PARTITION_SET
        assert len(EMPTY_PARTITION_SET) == 0
        assert PartitionSet.of([1])

    def test_as_frozenset(self):
        assert PartitionSet.of([4, 2]).as_frozenset() == frozenset({2, 4})

    def test_str_rendering(self):
        assert str(PartitionSet.of([1, 0])) == "{0, 1}"


class TestProcedureRequest:
    def test_of_builds_tuple_parameters(self):
        request = ProcedureRequest.of("neworder", [1, 2, (3, 4)])
        assert request.parameters == (1, 2, (3, 4))
        assert request.procedure == "neworder"

    def test_is_hashable(self):
        a = ProcedureRequest.of("p", [1, 2])
        b = ProcedureRequest.of("p", [1, 2])
        assert a == b
        assert hash(a) == hash(b)


class TestQueryType:
    def test_write_flag(self):
        assert QueryType.WRITE.is_write
        assert not QueryType.READ.is_write
