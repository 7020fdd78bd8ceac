"""Tests for column definitions and value validation."""

import pytest

from repro.catalog import Column, ColumnType, floating, integer, string
from repro.errors import CatalogError


class TestColumnConstruction:
    def test_requires_name(self):
        with pytest.raises(CatalogError):
            Column("", ColumnType.INTEGER)

    def test_requires_column_type(self):
        with pytest.raises(CatalogError):
            Column("a", "integer")  # type: ignore[arg-type]

    def test_helper_constructors(self):
        assert integer("a").col_type is ColumnType.INTEGER
        assert floating("a").col_type is ColumnType.FLOAT
        assert string("a").col_type is ColumnType.STRING


class TestValidation:
    def test_integer_accepts_int_only(self):
        column = integer("a")
        column.validate_value(5)
        with pytest.raises(CatalogError):
            column.validate_value("5")
        with pytest.raises(CatalogError):
            column.validate_value(5.5)

    def test_boolean_not_accepted_for_integer(self):
        with pytest.raises(CatalogError):
            integer("a").validate_value(True)

    def test_float_accepts_int_and_float(self):
        column = floating("a")
        column.validate_value(1)
        column.validate_value(1.5)

    def test_nullability(self):
        nullable = integer("a", nullable=True)
        nullable.validate_value(None)
        with pytest.raises(CatalogError):
            integer("b").validate_value(None)

    def test_string_validation(self):
        column = string("a")
        column.validate_value("x")
        with pytest.raises(CatalogError):
            column.validate_value(7)
