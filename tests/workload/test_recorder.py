"""Tests for the trace recorder."""

from repro.types import ProcedureRequest
from repro.workload import TraceRecorder


class TestTraceRecorder:
    def test_records_actual_query_sequence(self, account_catalog, account_database):
        recorder = TraceRecorder(account_catalog, account_database)
        record = recorder.record_one(ProcedureRequest.of("transfer", (4, 5, 10)))
        assert record.procedure == "transfer"
        assert [q[0] for q in record.queries] == ["GetFrom", "GetTo", "Debit", "Credit"]
        assert not record.aborted

    def test_records_user_abort(self, account_catalog, account_database):
        recorder = TraceRecorder(account_catalog, account_database)
        record = recorder.record_one(ProcedureRequest.of("transfer", (4, 5, 10_000)))
        assert record.aborted

    def test_txn_ids_increment_across_requests(self, account_catalog, account_database):
        recorder = TraceRecorder(account_catalog, account_database)
        trace = recorder.record([
            ProcedureRequest.of("transfer", (0, 4, 1)),
            ProcedureRequest.of("transfer", (1, 5, 1)),
        ])
        assert [r.txn_id for r in trace] == [1, 2]

    def test_default_base_chooser_uses_first_scalar(self, account_catalog, account_database):
        recorder = TraceRecorder(account_catalog, account_database)
        assert recorder._default_base_chooser(ProcedureRequest.of("transfer", (6, 1, 1))) == 2
