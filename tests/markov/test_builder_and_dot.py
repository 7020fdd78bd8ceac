"""Tests for Markov-model construction from traces and DOT export."""

import pytest

from repro.errors import ModelError
from repro.markov import (
    MarkovModel,
    MarkovModelBuilder,
    build_models_from_trace,
    models_summary,
    to_dot,
)
from repro.markov.vertex import VertexKind
from repro.types import PartitionSet, ProcedureRequest, QueryType
from repro.workload import TraceRecorder
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord


@pytest.fixture
def account_trace(account_catalog, account_database):
    recorder = TraceRecorder(account_catalog, account_database)
    requests = [
        ProcedureRequest.of("transfer", (0, 4, 5)),     # same partition
        ProcedureRequest.of("transfer", (1, 5, 5)),     # same partition
        ProcedureRequest.of("transfer", (0, 5, 5)),     # two partitions
        ProcedureRequest.of("transfer", (2, 6, 2000)),  # aborts
    ]
    return recorder.record(requests)


def transfer_record(*queries) -> TransactionTraceRecord:
    return TransactionTraceRecord(
        0, "transfer", (0, 5, 10),
        tuple(QueryTraceRecord(name, parameters) for name, parameters in queries),
    )


class TestStepsForRecord:
    def test_steps_for_record_tracks_history(self, account_catalog):
        builder = MarkovModelBuilder(account_catalog, base_partition_chooser=lambda record: 0)
        steps = builder.steps_for_record(transfer_record(
            ("GetFrom", (0,)), ("GetTo", (5,)), ("Debit", (0, 90)), ("Credit", (5, 110)),
        ))
        assert [s.counter for s in steps] == [0, 0, 0, 0]
        assert steps[0].previous == PartitionSet.of([])
        assert steps[1].previous == PartitionSet.of([0])
        assert steps[2].previous == PartitionSet.of([0, 1])
        assert steps[3].query_type is QueryType.WRITE

    def test_steps_for_record_counts_repeated_statements(self, account_catalog):
        builder = MarkovModelBuilder(account_catalog)
        steps = builder.steps_for_record(transfer_record(("GetFrom", (0,)), ("GetFrom", (5,))))
        assert steps[1].previous == PartitionSet.of([0])
        assert steps[1].partitions == PartitionSet.of([1])
        assert steps[1].counter == 1


class TestBuilder:
    def test_builds_model_per_procedure(self, account_catalog, account_trace):
        models = build_models_from_trace(account_catalog, account_trace)
        assert set(models) == {"transfer"}
        model = models["transfer"]
        assert model.processed
        assert model.transactions_observed == 4
        # The aborted transfer must connect to the abort state.
        abort_edges = [
            edge for vertex in model.vertices()
            for edge in model.edges_from(vertex.key)
            if edge.target.kind is VertexKind.ABORT
        ]
        assert abort_edges

    def test_extend_rejects_wrong_procedure(self, account_catalog, account_trace):
        builder = MarkovModelBuilder(account_catalog)
        model = MarkovModel("other", 4)
        with pytest.raises(ModelError):
            builder.extend(model, list(account_trace))

    def test_summary_rendering(self, account_catalog, account_trace):
        models = build_models_from_trace(account_catalog, account_trace)
        text = models_summary(models)
        assert "transfer" in text and "vertices" in text

    def test_custom_base_partition_chooser(self, account_catalog, account_trace):
        builder = MarkovModelBuilder(
            account_catalog, base_partition_chooser=lambda record: 0
        )
        model = builder.build(account_trace)["transfer"]
        assert model.vertex_count() > 3


class TestDotExport:
    def test_dot_contains_states_and_probabilities(self, account_catalog, account_trace):
        models = build_models_from_trace(account_catalog, account_trace)
        dot = to_dot(models["transfer"])
        assert dot.startswith("digraph")
        assert "GetFrom" in dot
        assert "begin" in dot and "commit" in dot
        assert "->" in dot

    def test_min_edge_probability_filters(self, account_catalog, account_trace):
        models = build_models_from_trace(account_catalog, account_trace)
        full = to_dot(models["transfer"], min_edge_probability=0.0)
        filtered = to_dot(models["transfer"], min_edge_probability=0.9)
        assert filtered.count("->") <= full.count("->")

    def test_include_tables_annotations(self, account_catalog, account_trace):
        models = build_models_from_trace(account_catalog, account_trace)
        dot = to_dot(models["transfer"], include_tables=True)
        assert "abort:" in dot
