"""What a snapshot costs, counted: it must not grow with the run's history.

``run_for`` returns a fresh snapshot after every segment, so a snapshot that
re-reads every completion since the session opened makes the per-segment
cost grow with run length and the run's total cost quadratic.
``line_events_per_completion`` counts Python ``line`` events
(``sys.settrace``, installed only around ``simulator.snapshot``) per
completion added since the previous snapshot, for each of ``SEGMENTS``
segments of an exact-metrics session; C-level work (list copies, sorts,
``sum`` over a ``map``) is not counted.  Every segment is a fixed number of
arrivals (``run_for(txns=...)``), so the normaliser does not move with burst
alignment.  The count is a function of the code and the seed, not of the
host or the hash seed.

The gate: the value at segment 60 is at most 1.25 x the value at segment
10.  Recorded at the parent commit (before the window was carried between
snapshots and the wait lists were sorted in place), same function, same
shapes — segment 10 -> segment 60:

* ``smallbank`` (bursty open loop, ``shortest-predicted`` under admission
  limits): 93.37 -> 493.37 line events per completion, **5.28x**;
* ``tenants`` (TATP, two tenant streams, WFQ with shedding): 106.73 ->
  508.07, **4.76x**;
* ``tpcc`` (closed loop, learning on): 119.50 -> 519.50, **4.35x**.

With the window carried and the waits sorted in place: 13.63 -> 13.63,
27.00 -> 28.33, 40.30 -> 40.30.  At ``benchmarks/e2e`` length the parent
reads 4.9-5.9x unnormalised.
"""

from __future__ import annotations

import sys

import pytest

from repro.scheduling.admission import AdmissionLimits
from repro.session import Cluster, ClusterSpec
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import OpenLoopSource, TenantSource
from tests.conftest import trained

SEGMENTS = 60
GATE = 1.25

SHAPES = {
    "smallbank": dict(
        artifacts=("smallbank", 16, 600, 0),
        spec=dict(
            workload=OpenLoopSource(650.0, "bursty", seed=1, burst_size=8),
            policy="shortest-predicted",
            admission=AdmissionLimits(max_distributed_in_flight=2, max_deferrals=1024),
        ),
        segment=dict(txns=30),
    ),
    "tenants": dict(
        artifacts=("tatp", 16, 600, 0),
        spec=dict(
            workload=TenantSource({
                "gold": OpenLoopSource(150.0, "poisson", seed=1),
                "free": OpenLoopSource(400.0, "bursty", seed=2, burst_size=16),
            }),
            tenancy=TenancyConfig(
                tenants={
                    "gold": TenantPolicy(weight=4.0, slo_latency_ms=250.0),
                    "free": TenantPolicy(weight=1.0, slo_latency_ms=3000.0),
                },
                shed=True,
            ),
        ),
        segment=dict(txns=30),
    ),
    "tpcc": dict(
        artifacts=("tpcc", 4, 300, 17),
        spec=dict(learning=True),
        segment=dict(txns=10),
    ),
}


def line_events_per_completion(shape: str) -> list[float]:
    """Per segment: line events inside its snapshot / completions it added."""
    benchmark, partitions, trace, seed = SHAPES[shape]["artifacts"]
    spec = ClusterSpec(
        benchmark=benchmark, num_partitions=partitions, strategy="houdini",
        model_provider="global", trace_transactions=trace, seed=seed,
        **{"learning": False, **SHAPES[shape]["spec"]},
    )
    session = Cluster.open(spec, artifacts=trained(benchmark, partitions, trace, seed))
    simulator = session.simulator
    real_snapshot = simulator.snapshot
    lines = 0

    def local(_frame, event, _argument):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def traced_snapshot():
        sys.settrace(lambda *_: local)
        try:
            return real_snapshot()
        finally:
            sys.settrace(None)

    simulator.snapshot = traced_snapshot
    values, recorded = [], 0
    try:
        for _ in range(SEGMENTS):
            lines = 0
            session.run_for(**SHAPES[shape]["segment"])
            completions = len(simulator._completions)
            values.append(lines / max(1, completions - recorded))
            recorded = completions
    finally:
        session.close()
    return values


class TestSnapshotCost:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_snapshot_cost_does_not_grow_with_history(self, shape):
        values = line_events_per_completion(shape)
        assert values[SEGMENTS - 1] <= GATE * values[9], (values[9], values[SEGMENTS - 1])
