"""Tests for workload traces and their serialization."""

import pytest

from repro.errors import WorkloadError
from repro.workload import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace


def make_record(txn_id=1, procedure="p", aborted=False):
    return TransactionTraceRecord(
        txn_id=txn_id,
        procedure=procedure,
        parameters=(1, "x", (2, 3)),
        queries=(
            QueryTraceRecord("Q1", (1,)),
            QueryTraceRecord("Q2", (1, "x"), partitions=(0, 1)),
        ),
        aborted=aborted,
    )


class TestTraceContainer:
    def test_append_and_iterate(self):
        trace = WorkloadTrace()
        trace.append(make_record(1))
        trace.extend([make_record(2, "q")])
        assert len(trace) == 2
        assert trace.procedures == ("p", "q")
        assert trace[0].txn_id == 1

    def test_for_procedure(self):
        trace = WorkloadTrace([make_record(1, "a"), make_record(2, "b"), make_record(3, "a")])
        assert len(trace.for_procedure("a")) == 2

    def test_split_fractions(self):
        trace = WorkloadTrace([make_record(i) for i in range(10)])
        train, validate, test = trace.split(0.3, 0.3, 0.4)
        assert len(train) == 3 and len(validate) == 3 and len(test) == 4
        with pytest.raises(WorkloadError):
            trace.split(0.9, 0.9)
        with pytest.raises(WorkloadError):
            trace.split()

    def test_halves(self):
        trace = WorkloadTrace([make_record(i) for i in range(7)])
        first, second = trace.halves()
        assert len(first) == 3 and len(second) == 4


class TestSerialization:
    def test_round_trip(self, tmp_path):
        trace = WorkloadTrace([make_record(1), make_record(2, aborted=True)])
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert len(loaded) == 2
        assert loaded[0].parameters == (1, "x", (2, 3))
        assert loaded[0].queries[1] == ("Q2", (1, "x"), (0, 1))
        assert loaded[1].aborted
        assert loaded.records == trace.records

    def test_queries_are_plain_tuples_however_built(self):
        record = make_record()
        assert all(type(query) is tuple for query in record.queries)
        assert record.queries[0] == ("Q1", (1,), None)
        listed = TransactionTraceRecord(1, "p", (), [["Q1", (1,), None]])
        assert listed.queries == (("Q1", (1,), None),)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a record"}\n')
        with pytest.raises(WorkloadError):
            WorkloadTrace.load(path)

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        "5",
        '{"txn_id": 1, "procedure": "p", "parameters": [], "queries": 5}',
        '{"txn_id": 1, "procedure": "p", "parameters": [], "queries": [5]}',
    ])
    def test_json_of_the_wrong_shape_raises_workload_error(self, tmp_path, line):
        trace = WorkloadTrace([make_record(1)])
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(WorkloadError, match="malformed trace line 2: "):
            WorkloadTrace.load(path)

    def test_blank_lines_ignored(self, tmp_path):
        trace = WorkloadTrace([make_record(1)])
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(WorkloadTrace.load(path)) == 1
