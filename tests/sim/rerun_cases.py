"""Scripted sessions whose results must depend on nothing but their seed.

Each case opens a session on pristine artifacts (``tests.conftest.trained``),
drives it and returns ``SimulationResult.to_dict()``.  The cases cover every
execution strategy on each benchmark and one session per event-loop shape:
the fast loop with learning on, tenancy with shedding, the gated open loop,
a self-tuning hot swap, and out-of-loop submits.

``tests/sim/test_rerun_determinism.py`` runs them twice in one process and
once more under two fixed hash seeds; the ``rerun_digests`` golden of
:mod:`tests.oracles` pins each first run's digest.
"""

from __future__ import annotations

import functools
import hashlib
import json

from repro.markov.builder import build_models_from_trace
from repro.scheduling.admission import AdmissionLimits
from repro.session import Cluster, ClusterSpec, record_trace
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.types import ProcedureRequest
from repro.workload import OpenLoopSource, TenantSource
from repro.workload.rng import WorkloadRandom
from tests.conftest import trained
from tests.selftune.test_selftune_session import (
    _SELFTUNE,
    LargeOrderGenerator,
    SmallOrderGenerator,
)

BENCHMARKS = ("tatp", "tpcc", "smallbank", "auctionmark")
STRATEGIES = (
    "assume-distributed",
    "assume-single-partition",
    "oracle",
    "houdini",
)
PARTITIONS = 4


def run_session(artifacts, drive, **spec_fields) -> dict:
    """``to_dict()`` of one scripted session, drained."""
    session = Cluster.open(
        ClusterSpec(
            benchmark=artifacts.benchmark.name, num_partitions=PARTITIONS,
            **spec_fields,
        ),
        artifacts=artifacts,
    )
    drive(session)
    return session.close().to_dict()


def strategy_run(bench: str, strategy: str) -> dict:
    """200 closed-loop transactions on the fast path."""
    return run_session(
        trained(bench, PARTITIONS, 150, 17),
        lambda session: session.run_for(txns=200),
        strategy=strategy,
    )


def learning_closed_loop() -> dict:
    """Fast loop, learning on: the monitor feeds the models."""
    return run_session(
        trained("tpcc", PARTITIONS, 300, 17),
        lambda session: session.run_for(txns=250),
        learning=True,
    )


def tenancy_with_shedding() -> dict:
    """General loop behind partition gates, quotas and the shed predictor."""
    return run_session(
        trained("smallbank", PARTITIONS, 600, 11),
        lambda session: session.run_for(sim_seconds=0.5),
        learning=False,
        workload=TenantSource({
            "gold": OpenLoopSource(400.0, "poisson", seed=11),
            "free": OpenLoopSource(1600.0, "bursty", seed=12, burst_size=128),
        }),
        tenancy=TenancyConfig(
            tenants={
                "gold": TenantPolicy(weight=3.0, quota=8, slo_latency_ms=40.0),
                "free": TenantPolicy(weight=1.0, slo_latency_ms=60.0),
            },
            shared_quota=2,
            shed=True,
        ),
    )


def gated_open_loop() -> dict:
    """General loop: preview estimates, predicted-cost order, admission."""
    return run_session(
        trained("smallbank", PARTITIONS, 400, 5),
        lambda session: session.run_for(sim_seconds=0.6),
        learning=False,
        workload=OpenLoopSource(900.0, "bursty", seed=6, burst_size=8),
        policy="shortest-predicted",
        admission=AdmissionLimits(max_distributed_in_flight=2, max_deferrals=1024),
    )


def selftune_hot_swap() -> dict:
    """Small orders in training, large ones live: a model is swapped mid-run."""
    artifacts = trained("tpcc", PARTITIONS, 400, 21)
    instance = artifacts.benchmark
    instance.generator = SmallOrderGenerator(
        instance.catalog, instance.config, WorkloadRandom(22)
    )
    artifacts.trace = record_trace(instance, 400)
    artifacts.models = build_models_from_trace(instance.catalog, artifacts.trace)

    def drive(session):
        session.run_for(txns=120)
        session.reconfigure(generator=LargeOrderGenerator(
            instance.catalog, instance.config, WorkloadRandom(23)
        ))
        session.run_for(txns=380)

    return run_session(artifacts, drive, strategy="houdini", seed=21, selftune=_SELFTUNE)


def out_of_loop_submit() -> dict:
    """Fast loop → general loop (``session.submit``) → fast loop."""
    def drive(session):
        session.run_for(txns=150)
        generator = session.simulator.generator
        for client in range(3):
            raw = generator.next_request()
            session.submit(ProcedureRequest(raw.procedure, raw.parameters, client, 0))
        session.run_for(txns=100)

    return run_session(trained("tpcc", PARTITIONS, 300, 11), drive, learning=False)


SHAPES = {
    shape.__name__: shape
    for shape in (
        learning_closed_loop, tenancy_with_shedding, gated_open_loop,
        selftune_hot_swap, out_of_loop_submit,
    )
}

#: Every case by name: ``bench-strategy`` and the loop shapes.
CASES = {
    **{
        f"{bench}-{strategy}": (
            lambda bench=bench, strategy=strategy: strategy_run(bench, strategy)
        )
        for bench in BENCHMARKS
        for strategy in STRATEGIES
    },
    **SHAPES,
}


def digest(result: dict) -> str:
    """SHA-256 of a result's JSON bytes, key order included."""
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


@functools.cache
def first_run(name: str) -> dict:
    """The case's first run in this process, shared by every check of it."""
    return CASES[name]()


def first_digest(name: str) -> str:
    return digest(first_run(name))
