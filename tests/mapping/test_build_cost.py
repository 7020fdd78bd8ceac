"""The cost of deriving parameter mappings, counted.

``lines_per_traced_query`` is the counted gate for the mapping stage of
training: Python ``line`` events (``sys.settrace``; C code adds none)
through ``build_parameter_mappings`` on a TPC-C trace of 1,500 transactions
(16 partitions, seed 0), divided by the queries the trace holds.  The trace
is recorded before the counted window opens.  The count is a function of the
code and the seed, not of the host or the hash seed; the gate counts in a
fresh interpreter (:func:`fresh_count`) so that nothing an earlier test left
behind runs inside the counted window.

The parent of the commit that added the gate read **82.21** line events per
query (one hashed probe per query value, with a hash table per record and
invocation counter).  Grouping records by statement sequence and counting
whole columns with ``sum(map(operator.eq, ...))`` read **8.400**; the gate
is that count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.mapping import build_parameter_mappings
from repro.session import build_benchmark, record_trace


def lines_per_traced_query(benchmark: str = "tpcc", transactions: int = 1500) -> float:
    instance = build_benchmark(benchmark, 16, seed=0)
    trace = record_trace(instance, transactions)
    lines = 0

    def tracer(_frame, event, _argument):
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    sys.settrace(tracer)
    try:
        build_parameter_mappings(instance.catalog, trace)
    finally:
        sys.settrace(None)
    return lines / sum(record.query_count for record in trace)


def fresh_count(benchmark: str) -> float:
    """:func:`lines_per_traced_query` in a fresh interpreter."""
    root = Path(__file__).resolve().parents[2]
    script = (
        "from tests.mapping.test_build_cost import lines_per_traced_query; "
        f"print(lines_per_traced_query({benchmark!r}))"
    )
    path = os.pathsep.join([str(root / "src"), str(root)])
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=300,
    )
    return float(completed.stdout.split()[-1])


class TestCountedGate:
    def test_python_lines_per_traced_query(self):
        measured = fresh_count("tpcc")
        assert measured <= 8.4, measured
