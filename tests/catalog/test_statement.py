"""Tests for parameterized statement definitions and binding."""

import pytest

from repro.catalog import Operation, Statement, delta, param
from repro.catalog.statement import BIND_DELTA, BIND_LITERAL, BIND_PARAM
from repro.errors import CatalogError
from repro.types import QueryType


def select_statement():
    return Statement(
        name="Get", table="T", operation=Operation.SELECT,
        where={"ID": param(0), "KIND": "fixed"}, output_columns=("VALUE",),
    )


class TestConstruction:
    def test_insert_requires_values(self):
        with pytest.raises(CatalogError):
            Statement(name="I", table="T", operation=Operation.INSERT)

    def test_update_requires_set_values(self):
        with pytest.raises(CatalogError):
            Statement(name="U", table="T", operation=Operation.UPDATE, where={"ID": param(0)})

    def test_set_values_only_for_update(self):
        with pytest.raises(CatalogError):
            Statement(
                name="S", table="T", operation=Operation.SELECT,
                set_values={"A": param(0)},
            )

    def test_query_type_classification(self):
        assert select_statement().query_type is QueryType.READ
        update = Statement(
            name="U", table="T", operation=Operation.UPDATE,
            where={"ID": param(0)}, set_values={"V": param(1)},
        )
        assert update.query_type is QueryType.WRITE
        assert update.is_write


class TestBinding:
    def test_where_plan_classifies_parameters_and_literals(self):
        assert select_statement().where_plan == (
            (("ID", BIND_PARAM, 0), ("KIND", BIND_LITERAL, "fixed")), 0
        )

    def test_insert_plan_classifies_parameters_and_literals(self):
        statement = Statement(
            name="I", table="T", operation=Operation.INSERT,
            insert_values={"ID": param(0), "V": param(1), "FLAG": 1},
        )
        assert statement.insert_plan == (
            (("ID", BIND_PARAM, 0), ("V", BIND_PARAM, 1), ("FLAG", BIND_LITERAL, 1)),
            1,
        )

    def test_set_plan_marks_deltas(self):
        statement = Statement(
            name="U", table="T", operation=Operation.UPDATE,
            where={"ID": param(0)},
            set_values={"BAL": delta(1), "NAME": param(2)},
        )
        assert statement.set_plan == (
            (("BAL", BIND_DELTA, 1), ("NAME", BIND_PARAM, 2)), 2
        )
        # Only SET assignments are additive: elsewhere a delta is a literal.
        assert statement.where_plan == ((("ID", BIND_PARAM, 0),), 0)

    def test_parameter_count(self):
        statement = Statement(
            name="U", table="T", operation=Operation.UPDATE,
            where={"ID": param(0)}, set_values={"V": delta(3)},
        )
        assert statement.parameter_count() == 4


class TestPartitioningIntrospection:
    def test_partitioning_parameter_index(self):
        statement = Statement(
            name="Get", table="T", operation=Operation.SELECT,
            where={"W_ID": param(2), "OTHER": param(0)},
        )
        assert statement.partitioning_parameter_index("W_ID") == 2
        assert statement.partitioning_parameter_index("MISSING") is None

    def test_partitioning_literal(self):
        statement = Statement(
            name="Get", table="T", operation=Operation.SELECT, where={"W_ID": 3},
        )
        assert statement.partitioning_literal("W_ID") == 3
        assert statement.partitioning_parameter_index("W_ID") is None

    def test_insert_uses_insert_values_for_partitioning(self):
        statement = Statement(
            name="I", table="T", operation=Operation.INSERT,
            insert_values={"W_ID": param(1), "V": param(0)},
        )
        assert statement.partitioning_parameter_index("W_ID") == 1
