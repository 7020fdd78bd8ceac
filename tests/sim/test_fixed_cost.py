"""The fixed cost of a short transaction, counted.

``calls_per_transaction`` is the counted gate for the whole per-transaction
path — request generation, planning, dispatch, execution, timing replay,
metrics: Python-level ``call`` events (``sys.setprofile``; C calls are not
counted, generator resumptions are) through ``session.run_for(txns=2000)``
after a 500-transaction warm-up, divided by 2000.  The count is a function of
the code and the seed, not of the host; a fresh interpreter repeats it
exactly, so the gate counts in one (:func:`fresh_count`).  Inside a longer
pytest session it can read higher: garbage earlier tests left is collected
in the counted window (running the ``gc`` callback Hypothesis installs),
and partition sets equal to an interned one but not identical to it are
compared through ``__eq__``.

Same function, same specs:

* ``tatp`` on the pass-through fast loop (the ``tatp_closed`` shape: 16
  partitions, learning off, streaming metrics, seed 0): **169.053** calls per
  transaction at the parent of the commit that added the gate, **118.656**
  at the parent of the commit that compiled each statement's access path
  into its step, **100.947** with it, **89.832** once a plan-memo hit
  served its entry's plan and its monitor replayed the entry's OP3/OP4
  schedule, and **86.373** once a streaming latency observation became one
  histogram-bucket increment instead of three P² updates and a reservoir
  draw.  The gate is that last count.
* ``smallbank`` on the general loop (``shortest-predicted`` under admission
  limits, exact metrics): **629.332** at the parent of the commit that
  added the gate (593.343 and 587.310 around the access-path commit,
  577.261 with the plan-memo replay).  The gate is that first count: a cut
  that only moves frames out of ``_run_fast`` and into ``_drain`` shows
  here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scheduling.admission import AdmissionLimits
from repro.session import Cluster, ClusterSpec
from tests.conftest import trained

WARMUP_TXNS = 500
COUNTED_TXNS = 2000

SHAPES = {
    "tatp": dict(learning=False, metrics_mode="streaming"),
    "smallbank": dict(
        learning=False, policy="shortest-predicted",
        admission=AdmissionLimits(max_distributed_in_flight=2, max_deferrals=1024),
    ),
}


def calls_per_transaction(benchmark: str) -> float:
    spec = ClusterSpec(
        benchmark=benchmark, num_partitions=16, strategy="houdini",
        model_provider="global", clients_per_partition=4, trace_transactions=600,
        seed=0, **SHAPES[benchmark],
    )
    session = Cluster.open(spec, artifacts=trained(benchmark, 16, 600, 0))
    calls = 0

    def profiler(_frame, event, _argument):
        nonlocal calls
        if event == "call":
            calls += 1

    try:
        session.run_for(txns=WARMUP_TXNS)
        sys.setprofile(profiler)
        try:
            session.run_for(txns=COUNTED_TXNS)
        finally:
            sys.setprofile(None)
        assert session.simulator.submitted == WARMUP_TXNS + COUNTED_TXNS
    finally:
        session.close()
    return calls / COUNTED_TXNS


def fresh_count(benchmark: str) -> float:
    """:func:`calls_per_transaction` in a fresh interpreter."""
    root = Path(__file__).resolve().parents[2]
    script = (
        "from tests.sim.test_fixed_cost import calls_per_transaction; "
        f"print(calls_per_transaction({benchmark!r}))"
    )
    path = os.pathsep.join([str(root / "src"), str(root)])
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=600,
    )
    return float(completed.stdout.split()[-1])


class TestCountedGate:
    @pytest.mark.parametrize("benchmark_name, gate", [
        ("tatp", 86.373),
        ("smallbank", 629.332),
    ])
    def test_python_calls_per_transaction(self, benchmark_name, gate):
        measured = fresh_count(benchmark_name)
        assert measured <= gate, measured
