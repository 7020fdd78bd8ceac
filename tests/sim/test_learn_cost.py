"""What learning costs per attempt, counted.

``calls_per_attempt`` is the counted gate for run-time learning (§4.4-4.5):
Python-level ``call`` events (``sys.setprofile``; C calls are not counted)
inside ``Houdini.after_attempt`` — sealing the attempt, writing what it
learned, the maintenance checks every 200 attempts with their recomputes,
and the outcome statistics — divided by the number of attempts, over
``session.run_for(txns=2000)`` after a 500-transaction warm-up on TPC-C (16
partitions, learning on, global models, seed 0).  Like
``test_fixed_cost.py``, the count is a function of the code and the seed,
not of the host; a fresh interpreter repeats it exactly.

Recorded at the parent of the commit that gave each model one transition
log (every transition written twice, once by
``MarkovModel.record_transitions`` and once by
``ModelMaintenance.record_transitions``, and every recompute republishing
the whole dirty region): **141.498** calls per attempt over 2,429 attempts.
The gate is 0.6 x that.
"""

from __future__ import annotations

import sys

from repro.houdini.houdini import Houdini
from repro.session import Cluster, ClusterSpec
from tests.conftest import trained

WARMUP_TXNS = 500
COUNTED_TXNS = 2000
PARENT = 141.498


def calls_per_attempt() -> float:
    spec = ClusterSpec(
        benchmark="tpcc", num_partitions=16, strategy="houdini",
        model_provider="global", clients_per_partition=4, trace_transactions=600,
        seed=0, learning=True,
    )
    session = Cluster.open(spec, artifacts=trained("tpcc", 16, 600, 0))
    after_attempt = Houdini.after_attempt.__code__
    depth = calls = attempts = 0

    def profiler(frame, event, _argument):
        nonlocal depth, calls, attempts
        if event == "call":
            if depth:
                depth += 1
                calls += 1
            elif frame.f_code is after_attempt:
                depth = 1
                calls += 1
                attempts += 1
        elif event == "return" and depth:
            depth -= 1

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
    assert attempts >= COUNTED_TXNS
    return calls / attempts


def test_python_calls_per_learning_attempt():
    measured = calls_per_attempt()
    assert measured <= 0.6 * PARENT, measured
