"""The cost of building Markov models, counted.

Two counts of ``build_models_from_trace`` on TPC-C (16 partitions, seed 0)
with ``session.train``'s base-partition chooser, each taken in a fresh
interpreter (:func:`fresh_counts`): nothing an earlier test left behind runs
inside the counted window, and no vertex key an earlier model holds is
reused.  The traces are recorded before the counted window opens.

* ``lines_per_traced_query``: Python ``line`` events (``sys.settrace``; C
  code adds none) per traced query on a 1,500-record trace.  The parent of
  the commit that added the gate read **60.86** (TATP **93.82**): it derived
  every record's path and folded it one record at a time, and copied a
  child's three probability columns into every vertex with one certain
  edge.  Folding each distinct path once with its count, routing a column
  per query position, and sharing a child's unchanged columns read
  **28.25** (TATP **38.38**); the gate is that count.
* ``tracked_objects_added``: objects the cycle collector tracks (after two
  full collections) that the build adds on a 4,000-record trace.  The parent
  read **90,760**; shared columns read **76,823**, the gate.

Both counts are a function of the code and the seed, not of the host or the
hash seed (CI runs this file under two hash seeds).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.markov import build_models_from_trace
from repro.session import build_benchmark, record_trace
from repro.types import ProcedureRequest

PARTITIONS = 16
SEED = 0


def _trained(benchmark: str, transactions: int):
    """A recorded trace and ``session.train``'s base-partition chooser."""
    instance = build_benchmark(benchmark, PARTITIONS, seed=SEED)
    trace = record_trace(instance, transactions)
    home = instance.generator.home_partition
    chooser = lambda record: home(ProcedureRequest(record.procedure, record.parameters))  # noqa: E731
    return instance.catalog, trace, chooser


def lines_per_traced_query(benchmark: str = "tpcc", transactions: int = 1500) -> float:
    catalog, trace, chooser = _trained(benchmark, transactions)
    lines = 0

    def tracer(_frame, event, _argument):
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    sys.settrace(tracer)
    try:
        build_models_from_trace(catalog, trace, base_partition_chooser=chooser)
    finally:
        sys.settrace(None)
    return lines / sum(record.query_count for record in trace)


def tracked_objects_added(transactions: int = 4000) -> int:
    catalog, trace, chooser = _trained("tpcc", transactions)
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    models = build_models_from_trace(catalog, trace, base_partition_chooser=chooser)
    gc.collect()
    gc.collect()
    added = len(gc.get_objects()) - before
    del models
    return added


def fresh_counts() -> dict:
    """Both counts, each in a fresh interpreter."""
    root = Path(__file__).resolve().parents[2]
    path = os.pathsep.join([str(root / "src"), str(root)])
    counts = {}
    for name in ("lines_per_traced_query", "tracked_objects_added"):
        script = (
            f"from tests.markov.test_model_build_cost import {name}; "
            f"print({name}())"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], cwd=root,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True, timeout=300,
        )
        counts[name] = json.loads(completed.stdout.split()[-1])
    return counts


@pytest.fixture(scope="module")
def counts():
    return fresh_counts()


class TestCountedGate:
    def test_python_lines_per_traced_query(self, counts):
        measured = counts["lines_per_traced_query"]
        assert measured <= 28.25, measured

    def test_tracked_objects_added_by_the_build(self, counts):
        measured = counts["tracked_objects_added"]
        assert measured <= 76823, measured
