"""Tests for stored-procedure declarations."""

import pytest

from repro.catalog import Operation, ProcedureParameter, Statement, StoredProcedure, param
from repro.errors import CatalogError, UnknownStatementError
from tests.conftest import TransferProcedure


class TestDeclarationValidation:
    def test_requires_name(self):
        class Nameless(TransferProcedure):
            name = ""

        with pytest.raises(CatalogError):
            Nameless()

    def test_requires_statements(self):
        class Empty(StoredProcedure):
            name = "empty"
            statements = {}

            def run(self, ctx, *params):  # pragma: no cover - never called
                return None

        with pytest.raises(CatalogError):
            Empty()

    def test_statement_key_must_match_name(self):
        class Mismatched(StoredProcedure):
            name = "m"
            statements = {
                "Wrong": Statement(
                    name="Right", table="ACCOUNT", operation=Operation.SELECT,
                    where={"A_ID": param(0)},
                ),
            }

            def run(self, ctx, *params):  # pragma: no cover - never called
                return None

        with pytest.raises(CatalogError):
            Mismatched()


class TestProcedureIntrospection:
    def test_statement_lookup(self):
        procedure = TransferProcedure()
        assert procedure.statement("Debit").name == "Debit"
        with pytest.raises(UnknownStatementError):
            procedure.statement("Nope")

    def test_parameter_index(self):
        procedure = TransferProcedure()
        assert procedure.parameter_index("to_id") == 1
        with pytest.raises(CatalogError):
            procedure.parameter_index("nope")

    def test_validate_parameters_checks_arity(self):
        procedure = TransferProcedure()
        procedure.validate_parameters((1, 2, 3))
        with pytest.raises(CatalogError):
            procedure.validate_parameters((1, 2))

    def test_validate_parameters_checks_arrays(self):
        class WithArray(StoredProcedure):
            name = "with_array"
            parameters = (ProcedureParameter("ids", is_array=True),)
            statements = TransferProcedure.statements

            def run(self, ctx, ids):  # pragma: no cover - never called
                return None

        procedure = WithArray()
        procedure.validate_parameters(((1, 2),))
        with pytest.raises(CatalogError):
            procedure.validate_parameters((5,))
