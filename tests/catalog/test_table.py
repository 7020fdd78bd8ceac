"""Tests for table definitions and row construction."""

import pytest

from repro.catalog import SecondaryIndex, Table, integer, string
from repro.errors import CatalogError, UnknownColumnError


def make_table(**overrides):
    defaults = dict(
        name="T",
        columns=[integer("ID"), string("NAME"), integer("VALUE", nullable=True)],
        primary_key=["ID"],
        partition_column="ID",
    )
    defaults.update(overrides)
    return Table(**defaults)


class TestTableDefinition:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            make_table(columns=[integer("ID"), integer("ID")])

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(UnknownColumnError):
            make_table(primary_key=["MISSING"])

    def test_unknown_partition_column_rejected(self):
        with pytest.raises(UnknownColumnError):
            make_table(partition_column="MISSING")

    def test_replicated_cannot_be_partitioned(self):
        with pytest.raises(CatalogError):
            make_table(replicated=True)

    def test_unknown_index_column_rejected(self):
        with pytest.raises(UnknownColumnError):
            make_table(secondary_indexes=[SecondaryIndex("IDX", ("MISSING",))])

    def test_column_lookup(self):
        table = make_table()
        assert table.column("NAME").name == "NAME"
        assert table.has_column("VALUE")
        with pytest.raises(UnknownColumnError):
            table.column("NOPE")


class TestRowConstruction:
    def test_new_row_fills_nullable_defaults(self):
        table = make_table()
        row = table.new_row({"ID": 1, "NAME": "a"})
        assert row == {"ID": 1, "NAME": "a", "VALUE": None}

    def test_new_row_rejects_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            make_table().new_row({"ID": 1, "NAME": "a", "EXTRA": 2})

    def test_new_row_requires_non_nullable_values(self):
        with pytest.raises(CatalogError):
            make_table().new_row({"ID": 1})

    def test_new_row_uses_declared_default(self):
        table = make_table(columns=[integer("ID"), integer("N", default=7)])
        assert table.new_row({"ID": 1}) == {"ID": 1, "N": 7}

    def test_validate_update_type_checks(self):
        table = make_table()
        table.validate_update({"NAME": "ok"})
        with pytest.raises(CatalogError):
            table.validate_update({"NAME": 5})
