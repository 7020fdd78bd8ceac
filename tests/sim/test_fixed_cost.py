"""The fixed cost of a short transaction, counted.

``calls_per_transaction`` is the counted gate for the whole per-transaction
path — request generation, planning, dispatch, execution, timing replay,
metrics: Python-level ``call`` events (``sys.setprofile``; C calls are not
counted, generator resumptions are) through ``session.run_for(txns=2000)``
after a 500-transaction warm-up, divided by 2000.  The count is a function of
the code and the seed, not of the host; a fresh interpreter repeats it
exactly, and inside a longer pytest session it can only read *lower* (vertex
keys another live model already holds are found, not constructed).

Recorded at the parent commit (before any cut), same function, same specs:

* ``tatp`` on the pass-through fast loop (the ``tatp_closed`` shape: 16
  partitions, learning off, streaming metrics, seed 0): **169.053** calls per
  transaction.  The gate is 0.85 x that; ROADMAP item 6's stretch is
  -27%.
* ``smallbank`` on the general loop (``shortest-predicted`` under admission
  limits, exact metrics): **629.332**.  The gate is the parent's own
  count: a cut that only moves frames out of ``_run_fast`` and into
  ``_drain`` shows here.
"""

from __future__ import annotations

import sys

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


class TestCountedGate:
    @pytest.mark.parametrize("benchmark_name, parent, gate_ratio", [
        ("tatp", 169.053, 0.85),
        ("smallbank", 629.332, 1.0),
    ])
    def test_python_calls_per_transaction(self, benchmark_name, parent, gate_ratio):
        measured = calls_per_transaction(benchmark_name)
        assert measured <= gate_ratio * parent, measured
