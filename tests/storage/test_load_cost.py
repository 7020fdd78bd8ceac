"""The cost of loading a row, counted.

``calls_per_loaded_row`` is the counted gate for the database build: Python
``call`` events (``sys.setprofile``; C calls are not counted) through
``build_benchmark("tatp", 16, seed=0)`` — catalog, generator draws, routing,
validation, heap and index inserts — divided by the rows the build stores.
The count is a function of the code and the seed, not of the host or the
hash seed; the gate counts in a fresh interpreter (:func:`fresh_count`) so
that nothing an earlier test left behind runs inside the counted window.

The parent of the commit that added the gate read **35.83** calls per row
(``randrange`` / ``choice`` frames per drawn value, one generic
``load_row`` per row that looked the table and each heap up again and
routed through the partition estimator).  Drawing straight from
``getrandbits`` and loading through a cached per-table plan read
**9.333**; the gate is that count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.session import build_benchmark


def calls_per_loaded_row(benchmark: str = "tatp", partitions: int = 16) -> float:
    calls = 0

    def profiler(_frame, event, _argument):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        instance = build_benchmark(benchmark, partitions, seed=0)
    finally:
        sys.setprofile(None)
    return calls / instance.database.total_rows()


def fresh_count(benchmark: str) -> float:
    """:func:`calls_per_loaded_row` in a fresh interpreter."""
    root = Path(__file__).resolve().parents[2]
    script = (
        "from tests.storage.test_load_cost import calls_per_loaded_row; "
        f"print(calls_per_loaded_row({benchmark!r}))"
    )
    path = os.pathsep.join([str(root / "src"), str(root)])
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=300,
    )
    return float(completed.stdout.split()[-1])


class TestCountedGate:
    def test_python_calls_per_loaded_row(self):
        measured = fresh_count("tatp")
        assert measured <= 9.333, measured
