"""Golden trace oracle: what the recorder writes, byte for byte.

``golden_traces.json`` holds the sha256 of :meth:`WorkloadTrace.save`'s bytes
for the traces ``session.train`` records at 16 partitions, seed 0 — recorded
from the commit *before* recorded queries became plain tuples.  How a trace
holds its queries in memory may change; the JSON lines it saves may not.
Loading a saved trace and saving it again reproduces the same bytes, and the
loaded trace equals the recorded one.

Re-record (only in a change that means to alter the trace format)::

    PYTHONPATH=src:. python tests/workload/test_golden_traces.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.session import build_benchmark, record_trace
from repro.workload import WorkloadTrace

GOLDEN = Path(__file__).with_name("golden_traces.json")
PARTITIONS = 16
SEED = 0
#: ``(benchmark, trace transactions)`` — the cases of the model golden.
CASES = (
    ("tpcc", 1500), ("tpcc", 4000), ("tatp", 1500), ("smallbank", 1500),
    ("auctionmark", 1500),
)


def case_key(benchmark: str, transactions: int) -> str:
    return f"{benchmark}-{transactions}"


def saved_bytes(trace: WorkloadTrace, directory: Path) -> bytes:
    path = directory / "trace.jsonl"
    trace.save(path)
    return path.read_bytes()


def record_case(benchmark: str, transactions: int) -> WorkloadTrace:
    return record_trace(build_benchmark(benchmark, PARTITIONS, seed=SEED), transactions)


def trace_digest(data: bytes) -> dict:
    return {"lines": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,transactions", CASES)
def test_saved_trace_matches_parent_and_round_trips(name, transactions, golden, tmp_path):
    trace = record_case(name, transactions)
    data = saved_bytes(trace, tmp_path)
    assert trace_digest(data) == golden[case_key(name, transactions)]
    loaded = WorkloadTrace.load(tmp_path / "trace.jsonl")
    assert saved_bytes(loaded, tmp_path) == data
    assert loaded == trace


def test_golden_covers_every_case(golden):
    assert set(golden) == {case_key(*case) for case in CASES}
    assert all(golden[case_key(*case)]["lines"] == case[1] for case in CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {
            case_key(*case): trace_digest(saved_bytes(record_case(*case), Path(scratch)))
            for case in CASES
        }
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN}")
