"""Tests for partition schemes and the partition estimator (internal API)."""

import pytest

from repro.catalog import (
    Operation,
    PartitionEstimator,
    PartitionScheme,
    Statement,
    Table,
    integer,
    param,
    stable_hash,
    string,
)
from repro.errors import CatalogError
from repro.types import PartitionSet


def partitioned_table():
    return Table(
        name="T",
        columns=[integer("W_ID"), integer("V")],
        primary_key=["W_ID"],
        partition_column="W_ID",
    )


def replicated_table():
    return Table(name="R", columns=[integer("ID"), string("N")], primary_key=["ID"], replicated=True)


class TestStableHash:
    def test_integers_hash_to_themselves(self):
        assert stable_hash(42) == 42

    def test_strings_are_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")

    def test_unsupported_type_raises(self):
        with pytest.raises(CatalogError):
            stable_hash(object())


class TestPartitionScheme:
    def test_partition_for_value_modulo(self):
        scheme = PartitionScheme(4)
        assert scheme.partition_for_value(6) == 2

    def test_node_mapping(self):
        scheme = PartitionScheme(8, partitions_per_node=2)
        assert scheme.num_nodes == 4
        assert scheme.partitions_for_node(3).partitions == (6, 7)

    def test_all_partitions(self):
        assert PartitionScheme(3).all_partitions().partitions == (0, 1, 2)

    def test_invalid_configuration(self):
        with pytest.raises(CatalogError):
            PartitionScheme(0)


class TestPartitionEstimator:
    def setup_method(self):
        self.scheme = PartitionScheme(4)
        self.estimator = PartitionEstimator(self.scheme)

    def test_equality_on_partition_column_targets_one_partition(self):
        statement = Statement(
            name="Get", table="T", operation=Operation.SELECT, where={"W_ID": param(0)},
        )
        result = self.estimator.partitions_for(partitioned_table(), statement, [6])
        assert result == PartitionSet.of([2])

    def test_missing_partition_predicate_broadcasts(self):
        statement = Statement(
            name="Scan", table="T", operation=Operation.SELECT, where={"V": param(0)},
        )
        result = self.estimator.partitions_for(partitioned_table(), statement, [1])
        assert result == self.scheme.all_partitions()

    def test_literal_partition_predicate(self):
        statement = Statement(
            name="Get", table="T", operation=Operation.SELECT, where={"W_ID": 5},
        )
        result = self.estimator.partitions_for(partitioned_table(), statement, [])
        assert result == PartitionSet.of([1])

    def test_replicated_read_is_local_to_base(self):
        statement = Statement(
            name="Get", table="R", operation=Operation.SELECT, where={"ID": param(0)},
        )
        result = self.estimator.partitions_for(
            replicated_table(), statement, [1], base_partition=3
        )
        assert result == PartitionSet.of([3])

    def test_replicated_write_touches_every_partition(self):
        statement = Statement(
            name="Ins", table="R", operation=Operation.INSERT,
            insert_values={"ID": param(0), "N": param(1)},
        )
        result = self.estimator.partitions_for(replicated_table(), statement, [1, "x"])
        assert result == self.scheme.all_partitions()

    def test_none_partitioning_value_broadcasts(self):
        statement = Statement(
            name="Get", table="T", operation=Operation.SELECT, where={"W_ID": param(0)},
        )
        result = self.estimator.partitions_for(partitioned_table(), statement, [None])
        assert result == self.scheme.all_partitions()
