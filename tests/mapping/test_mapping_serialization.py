"""Tests for JSON (de)serialization of parameter mappings."""

from __future__ import annotations

import pytest

from repro.errors import EstimationError
from repro.mapping import (
    MappingEntry,
    ParameterMapping,
    ParameterMappingBuilder,
    ParameterMappingSet,
    load_mappings,
    mapping_from_dict,
    mapping_set_from_dict,
    mapping_set_to_dict,
    mapping_to_dict,
    save_mappings,
)
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace
from tests.houdini.reference import resolve


def _sample_mapping() -> ParameterMapping:
    return ParameterMapping(
        procedure="NewOrder",
        entries=[
            MappingEntry("GetWarehouse", 0, 0, False, 1.0),
            MappingEntry("CheckStock", 0, 1, True, 0.98),
            MappingEntry("CheckStock", 1, 0, False, 1.0),
        ],
        threshold=0.9,
    )


def _sample_set() -> ParameterMappingSet:
    mappings = ParameterMappingSet()
    mappings.add(_sample_mapping())
    mappings.add(ParameterMapping(procedure="Payment", entries=[
        MappingEntry("GetCustomer", 0, 0, False, 1.0),
    ]))
    return mappings


class TestMappingRoundTrip:
    def test_entries_survive_round_trip(self):
        original = _sample_mapping()
        restored = mapping_from_dict(mapping_to_dict(original))
        assert restored.procedure == original.procedure
        assert restored.threshold == original.threshold
        assert sorted(
            (e.statement, e.query_param_index, e.procedure_param_index, e.array_aligned)
            for e in restored.entries
        ) == sorted(
            (e.statement, e.query_param_index, e.procedure_param_index, e.array_aligned)
            for e in original.entries
        )

    def test_resolution_behaviour_is_identical(self):
        original = _sample_mapping()
        restored = mapping_from_dict(mapping_to_dict(original))
        parameters = (7, [101, 102, 103])
        for counter in range(3):
            assert resolve(restored, "CheckStock", 0, counter, parameters) == resolve(
                original, "CheckStock", 0, counter, parameters
            )
        assert resolve(restored, "GetWarehouse", 0, 0, parameters) == 7

    def test_a_tied_slot_resolves_the_same_after_a_round_trip(self, account_catalog):
        """``x`` is both parameter 1 and the only element of array parameter
        0, so two entries of coefficient 1.0 compete for ``GetFrom``'s slot.
        The builder adds the scalar entry first and the file lists entries by
        procedure index; the tie must be broken by the entries themselves
        (lower procedure index first), not by either order."""
        trace = WorkloadTrace([
            TransactionTraceRecord(txn_id, "transfer", ((x,), x, 5), (
                QueryTraceRecord("GetFrom", (x,)),
            ))
            for txn_id, x in enumerate((11, 12, 13, 14))
        ])
        fresh = ParameterMappingBuilder(account_catalog).build(trace, "transfer")
        restored = mapping_from_dict(mapping_to_dict(fresh))
        assert len(fresh.entries) == 2
        assert fresh.entry_for("GetFrom", 0) == restored.entry_for("GetFrom", 0)
        assert fresh.entry_for("GetFrom", 0).procedure_param_index == 0
        parameters = ((7,), 9, 1)
        assert resolve(fresh, "GetFrom", 0, 0, parameters) == 7
        assert resolve(restored, "GetFrom", 0, 0, parameters) == 7

    def test_missing_fields_raise_estimation_error(self):
        with pytest.raises(EstimationError):
            mapping_from_dict({"entries": []})


class TestMappingSetRoundTrip:
    def test_set_round_trip(self):
        original = _sample_set()
        restored = mapping_set_from_dict(mapping_set_to_dict(original))
        assert set(restored) == set(original)
        assert restored["NewOrder"].entry_for("CheckStock", 0) is not None

    def test_version_check(self):
        payload = mapping_set_to_dict(_sample_set())
        payload["format_version"] = 42
        with pytest.raises(EstimationError):
            mapping_set_from_dict(payload)

    def test_save_and_load_files(self, tmp_path):
        path = save_mappings(_sample_set(), tmp_path / "mappings.json")
        restored = load_mappings(path)
        assert set(restored) == {"NewOrder", "Payment"}

    def test_real_tpcc_mappings_round_trip(self, tpcc_artifacts):
        original = tpcc_artifacts.mappings
        restored = mapping_set_from_dict(mapping_set_to_dict(original))
        assert set(restored) == set(original)
        for procedure in original:
            assert len(restored[procedure].entries) == len(original[procedure].entries)
