"""Tests for parameter mappings and their derivation from traces."""

import itertools
import json

import pytest

from repro.errors import EstimationError
from repro.mapping import (
    MappingEntry,
    ParameterMapping,
    ParameterMappingBuilder,
    build_parameter_mappings,
    geometric_mean,
)
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace
from tests.houdini.reference import resolve
from tests.mapping.reference import PairwiseMappingBuilder, mapping_state


class TestGeometricMean:
    def test_of_equal_values(self):
        assert geometric_mean([0.5, 0.5]) == pytest.approx(0.5)

    def test_zero_or_empty(self):
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1.0, 0.0]) == 0.0

    def test_mixed(self):
        assert geometric_mean([1.0, 0.25]) == pytest.approx(0.5)


class TestParameterMapping:
    def make_mapping(self):
        mapping = ParameterMapping("proc")
        mapping.add(MappingEntry("Q", 0, 1, False, 1.0))
        mapping.add(MappingEntry("Q", 1, 2, True, 0.95))
        return mapping

    def test_resolve_scalar(self):
        mapping = self.make_mapping()
        assert resolve(mapping, "Q", 0, 0, ("a", "b", (1, 2))) == "b"

    def test_resolve_array_aligned_by_counter(self):
        mapping = self.make_mapping()
        assert resolve(mapping, "Q", 1, 0, ("a", "b", (10, 20))) == 10
        assert resolve(mapping, "Q", 1, 1, ("a", "b", (10, 20))) == 20
        # Out of bounds: unknown.
        assert resolve(mapping, "Q", 1, 5, ("a", "b", (10, 20))) is None

    def test_resolve_unmapped_slot(self):
        mapping = self.make_mapping()
        assert resolve(mapping, "Q", 3, 0, ("a", "b", ())) is None
        assert resolve(mapping, "Other", 0, 0, ("a",)) is None

    def test_best_entry_wins(self):
        mapping = ParameterMapping("proc")
        mapping.add(MappingEntry("Q", 0, 1, False, 0.91))
        mapping.add(MappingEntry("Q", 0, 2, True, 1.0))
        assert mapping.entry_for("Q", 0).procedure_param_index == 2

    def test_ties_break_by_the_entries_not_their_order(self):
        contenders = [
            MappingEntry("Q", 0, 2, False, 1.0),
            MappingEntry("Q", 0, 1, True, 1.0),
            MappingEntry("Q", 0, 1, False, 1.0),
            MappingEntry("Q", 0, 0, False, 0.95),
        ]
        for entries in itertools.permutations(contenders):
            built = ParameterMapping("proc", entries=list(entries))
            added = ParameterMapping("proc")
            for entry in entries:
                added.add(entry)
            assert built.entry_for("Q", 0) == added.entry_for("Q", 0) == contenders[2]

    def test_missing_parameter_raises(self):
        mapping = self.make_mapping()
        with pytest.raises(EstimationError):
            resolve(mapping, "Q", 0, 0, ("only-one",))

    def test_describe_mentions_entries(self):
        text = self.make_mapping().describe()
        assert "Q(param 0)" in text


class TestMappingBuilder:
    def test_tpcc_neworder_mapping_matches_figure7(self, tpcc_artifacts):
        mapping = tpcc_artifacts.mappings["neworder"]
        # w_id (procedure parameter 0) feeds GetWarehouse's only parameter.
        warehouse_entry = mapping.entry_for("GetWarehouse", 0)
        assert warehouse_entry.procedure_param_index == 0
        assert not warehouse_entry.array_aligned
        # i_ids[n] (procedure parameter 3) feeds CheckStock's first parameter.
        stock_entry = mapping.entry_for("CheckStock", 0)
        assert stock_entry.procedure_param_index == 3
        assert stock_entry.array_aligned
        # i_w_ids[n] (procedure parameter 4) feeds CheckStock's second parameter.
        supply_entry = mapping.entry_for("CheckStock", 1)
        assert supply_entry.procedure_param_index == 4
        assert supply_entry.array_aligned

    def test_tatp_sub_nbr_is_not_mapped_to_s_id(self, tatp_artifacts):
        # The broadcast procedures look up S_ID from SUB_NBR; the two values
        # never coincide, so no mapping should link them (the paper's reason
        # why Houdini cannot pick their base partition).
        mapping = tatp_artifacts.mappings.get("UpdateLocation")
        if mapping is not None:
            entry = mapping.entry_for("UpdateSubscriberLocation", 0)
            assert entry is None or entry.coefficient < 1.0

    def test_threshold_filters_coincidences(self, account_catalog, account_database):
        from repro.types import ProcedureRequest
        from repro.workload import TraceRecorder

        recorder = TraceRecorder(account_catalog, account_database)
        trace = recorder.record([
            ProcedureRequest.of("transfer", (i % 4, (i + 1) % 4, 5)) for i in range(40)
        ])
        mappings = build_parameter_mappings(account_catalog, trace)
        transfer = mappings["transfer"]
        # GetFrom's parameter comes from from_id, GetTo's from to_id.
        assert transfer.entry_for("GetFrom", 0).procedure_param_index == 0
        assert transfer.entry_for("GetTo", 0).procedure_param_index == 1

    def test_min_comparisons_guard(self, account_catalog, account_database):
        from repro.types import ProcedureRequest
        from repro.workload import TraceRecorder

        recorder = TraceRecorder(account_catalog, account_database)
        trace = recorder.record([ProcedureRequest.of("transfer", (1, 2, 5))])
        builder = ParameterMappingBuilder(account_catalog, min_comparisons=3)
        mapping = builder.build(trace, "transfer")
        assert mapping.entry_for("GetFrom", 0) is None

    def test_unhashable_values_from_json_are_compared_pair_by_pair(self, account_catalog):
        """A JSON trace keeps an object-valued parameter as a dict, which
        cannot be hashed; the column count must match it by ``==`` like any
        other value, as a scalar and as an array element."""
        records = []
        for txn_id in range(6):
            owner = {"name": txn_id % 3}
            records.append(TransactionTraceRecord(
                txn_id, "transfer", (txn_id, [{"id": txn_id}, {"id": 9}], owner), (
                    QueryTraceRecord("GetFrom", (txn_id, {"name": txn_id % 3})),
                    QueryTraceRecord("GetTo", ({"id": txn_id}, [txn_id])),
                    QueryTraceRecord("GetTo", ({"id": 9},)),
                ),
            ))
        loaded = WorkloadTrace([
            TransactionTraceRecord.from_json(json.loads(json.dumps(record.to_json())))
            for record in records
        ])
        assert isinstance(loaded[0].parameters[2], dict)
        assert isinstance(loaded[0].parameters[1], tuple)
        built = ParameterMappingBuilder(account_catalog, threshold=0.0).build_all(loaded)
        expected = PairwiseMappingBuilder(account_catalog, threshold=0.0).build_all(loaded)
        assert mapping_state(built) == mapping_state(expected)
        transfer = built["transfer"]
        assert transfer.entry_for("GetFrom", 1).procedure_param_index == 2
        assert transfer.entry_for("GetTo", 0).procedure_param_index == 1
        assert transfer.entry_for("GetTo", 0).array_aligned
