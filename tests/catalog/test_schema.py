"""Tests for Schema and Catalog containers."""

import pytest

from repro.catalog import Catalog, PartitionScheme, Schema, Table, integer
from repro.errors import CatalogError, UnknownProcedureError, UnknownTableError
from tests.conftest import TransferProcedure, make_account_schema


class TestSchema:
    def test_add_and_lookup(self):
        schema = make_account_schema()
        assert schema.has_table("ACCOUNT")
        assert "ACCOUNT" in schema
        assert schema.table("ACCOUNT").name == "ACCOUNT"
        assert len(schema) == 1

    def test_duplicate_table_rejected(self):
        schema = make_account_schema()
        with pytest.raises(CatalogError):
            schema.add_table(Table(name="ACCOUNT", columns=[integer("X")]))

    def test_unknown_table_raises(self):
        with pytest.raises(UnknownTableError):
            make_account_schema().table("NOPE")


class TestCatalog:
    def test_procedure_registration_and_lookup(self):
        catalog = Catalog(make_account_schema(), PartitionScheme(2), [TransferProcedure()])
        assert catalog.has_procedure("transfer")
        assert catalog.procedure("transfer").name == "transfer"
        assert [p.name for p in catalog.procedures()] == ["transfer"]

    def test_unknown_procedure_raises(self):
        catalog = Catalog(make_account_schema(), PartitionScheme(2))
        with pytest.raises(UnknownProcedureError):
            catalog.procedure("nope")

    def test_statement_validation_against_schema(self):
        class BadProcedure(TransferProcedure):
            name = "bad"
            statements = dict(TransferProcedure.statements)

        BadProcedure.statements = {
            "GetFrom": TransferProcedure.statements["GetFrom"],
        }
        # Point the statement at a missing table by rebuilding the catalog
        # with an empty schema.
        schema = Schema([Table(name="OTHER", columns=[integer("X")], primary_key=["X"])])
        with pytest.raises(UnknownTableError):
            Catalog(schema, PartitionScheme(2), [BadProcedure()])

    def test_requires_at_least_one_table(self):
        with pytest.raises(CatalogError):
            Catalog(Schema(), PartitionScheme(2))
