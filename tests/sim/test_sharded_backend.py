"""Tests for the sharded execution backend (:mod:`repro.sim.backend`).

The backend's whole contract is *byte-identical simulated results*: it is
the attempt executor behind the simulator's one execute site, so planning,
gates, retries, learning and metrics are the inline code, and an attempt
that locks only its base partition runs on a worker instead of the
coordinator.  These tests hold it to that, and make sure the comparison is
never the coordinator against itself:

* ``SimulationResult.to_dict()`` equality against the inline backend on
  TATP and TPC-C, across all four execution strategies and worker counts;
* the same equality, **with ``dispatched > 0``**, on one session per loop
  shape (``SHAPES``): fast loop with learning on, tenancy with shedding,
  gated open loop, a self-tuning hot swap, out-of-loop submits;
* seeded mutations of the accept path those shapes must catch;
* a killed worker, or one whose attempt raises, surfaces a prompt named
  ``SessionError`` from either event loop instead of hanging the
  coordinator, and closing the session leaves no child behind;
* spec validation and round-tripping of the backend fields.

Artifacts come from ``tests.conftest.trained``: trained once per
``(benchmark, partitions, trace, seed)`` and unpickled per run — learning
mutates the models in place, so every side needs its own.
"""

from __future__ import annotations

import functools
import os
import signal
import time
import types

import pytest

from repro import pipeline
from repro.engine import ExecutionEngine
from repro.errors import ReproError, SessionError
from repro.houdini import Houdini, HoudiniConfig
from repro.markov.builder import build_models_from_trace
from repro.scheduling.admission import AdmissionLimits
from repro.session import Cluster, ClusterSpec
from repro.sim.backend import ShardedBackend, sharded as sharded_module
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.types import PartitionSet, ProcedureRequest
from repro.workload import OpenLoopSource, TenantSource
from repro.workload.rng import WorkloadRandom
from tests.conftest import trained
from tests.selftune.test_selftune_session import (
    _SELFTUNE,
    LargeOrderGenerator,
    SmallOrderGenerator,
)

STRATEGIES = (
    "assume-distributed",
    "assume-single-partition",
    "oracle",
    "houdini",
)
PARTITIONS = 4


def run_session(backend, artifacts, drive, *, workers=2, **spec_fields):
    """``(to_dict(), backend stats)`` of one scripted session, drained."""
    session = Cluster.open(
        ClusterSpec(
            benchmark=artifacts.benchmark.name, num_partitions=PARTITIONS,
            execution_backend=backend, num_workers=workers, **spec_fields,
        ),
        artifacts=artifacts,
    )
    try:
        drive(session)
        result = session.close().to_dict()
    finally:
        session.simulator.close()
    backend_obj = session.simulator._backend
    return result, dict(backend_obj.stats) if backend_obj is not None else None


# ----------------------------------------------------------------------
# Strategies x worker counts (closed loop, fast path)
# ----------------------------------------------------------------------
def _run(bench, strategy, backend, workers=2):
    return run_session(
        backend, trained(bench, PARTITIONS, 150, 17),
        lambda session: session.run_for(txns=200),
        strategy=strategy, workers=workers,
    )


@functools.cache
def _inline_reference(bench, strategy):
    return _run(bench, strategy, "inline")[0]


class TestByteEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("bench", ["tatp", "tpcc"])
    def test_sharded_equals_inline(self, bench, strategy):
        sharded, stats = _run(bench, strategy, "sharded", workers=2)
        if strategy != "assume-distributed":  # the one that never locks {base}
            assert stats["dispatched"] > 0, "dispatch path never engaged"
        assert sharded == _inline_reference(bench, strategy)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_does_not_change_results(self, workers):
        sharded, stats = _run("tatp", "houdini", "sharded", workers=workers)
        assert stats["dispatched"] > 0, "dispatch path never engaged"
        assert sharded == _inline_reference("tatp", "houdini")


# ----------------------------------------------------------------------
# One session per loop shape
# ----------------------------------------------------------------------
def _learning_closed_loop(backend):
    """Fast loop, learning on: the replayed monitor feeds the models."""
    return run_session(
        backend, trained("tpcc", PARTITIONS, 300, 17),
        lambda session: session.run_for(txns=250),
        learning=True,
    )


def _tenancy_with_shedding(backend):
    """General loop behind partition gates, quotas and the shed predictor."""
    return run_session(
        backend, trained("smallbank", PARTITIONS, 600, 11),
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


def _gated_open_loop(backend):
    """General loop: preview estimates, predicted-cost order, admission."""
    return run_session(
        backend, trained("smallbank", PARTITIONS, 400, 5),
        lambda session: session.run_for(sim_seconds=0.6),
        learning=False,
        workload=OpenLoopSource(900.0, "bursty", seed=6, burst_size=8),
        policy="shortest-predicted",
        admission=AdmissionLimits(max_distributed_in_flight=2, max_deferrals=1024),
    )


def _selftune_hot_swap(backend):
    """Small orders in training, large ones live: a model is swapped mid-run."""
    artifacts = trained("tpcc", PARTITIONS, 400, 21)
    instance = artifacts.benchmark
    instance.generator = SmallOrderGenerator(
        instance.catalog, instance.config, WorkloadRandom(22)
    )
    artifacts.trace = pipeline.record_trace(instance, 400)
    artifacts.models = build_models_from_trace(instance.catalog, artifacts.trace)

    def drive(session):
        session.run_for(txns=120)
        session.reconfigure(generator=LargeOrderGenerator(
            instance.catalog, instance.config, WorkloadRandom(23)
        ))
        session.run_for(txns=380)

    result, stats = run_session(
        backend, artifacts, drive, strategy="houdini", seed=21, selftune=_SELFTUNE
    )
    assert result["selftune"]["swaps"] >= 1, "the scenario must swap a model"
    return result, stats


def _out_of_loop_submit(backend):
    """Fast loop → general loop (``session.submit``) → fast loop."""
    def drive(session):
        session.run_for(txns=150)
        generator = session.simulator.generator
        for client in range(3):
            raw = generator.next_request()
            session.submit(ProcedureRequest(raw.procedure, raw.parameters, client, 0))
        session.run_for(txns=100)

    return run_session(backend, trained("tpcc", PARTITIONS, 300, 11), drive, learning=False)


SHAPES = {
    shape.__name__.lstrip("_"): shape
    for shape in (
        _learning_closed_loop, _tenancy_with_shedding, _gated_open_loop,
        _selftune_hot_swap, _out_of_loop_submit,
    )
}


@functools.cache
def _inline_shape(name):
    return SHAPES[name]("inline")[0]


class TestEveryLoopShapeDispatches:
    """Recorded with this file on the parent of the PR that made the backend
    the attempt executor: ``dispatched`` read 0 / 0 / 0 / 0 / 73 in ``SHAPES``
    order (four of five compared the coordinator with itself), against
    243 / 472 / 380 / 457 / 233 attempts here, 3 / 0 / 5 / 11 / 2 of them
    rejected and repeated locally."""

    @pytest.mark.parametrize("name", SHAPES)
    def test_sharded_equals_inline_and_dispatches(self, name):
        sharded, stats = SHAPES[name]("sharded")
        assert stats["dispatched"] > 0, "the oracle compared the coordinator with itself"
        assert stats["accepted"] + stats["rejected"] == stats["dispatched"]
        assert sharded == _inline_shape(name)


    def test_a_full_buffer_is_sent_ahead_of_the_next_dispatch(self, monkeypatch):
        """Local writes beyond the buffer bound travel as their own message."""
        sent = []
        send = ShardedBackend._send
        monkeypatch.setattr(ShardedBackend, "MAX_BUFFERED_OPS", 0)
        monkeypatch.setattr(
            ShardedBackend, "_send",
            lambda self, worker, message: sent.append(message[0]) or send(self, worker, message),
        )
        assert SHAPES["gated_open_loop"]("sharded")[0] == _inline_shape("gated_open_loop")
        assert sharded_module.MSG_EFFECTS in sent


def _diverges(name) -> bool:
    """Whether the sharded run of a shape fails or differs from inline."""
    try:
        return SHAPES[name]("sharded")[0] != _inline_shape(name)
    except ReproError:
        return True


class TestMutationsAreCaught:
    def test_skipping_the_listener_replay(self, monkeypatch):
        """The monitor must see a worker's queries: it learns from them."""
        run_on_worker = ShardedBackend._run_on_worker
        monkeypatch.setattr(
            ShardedBackend, "_run_on_worker",
            lambda self, request, base, locked, undo_enabled, listeners:
                run_on_worker(self, request, base, locked, undo_enabled, ()),
        )
        assert _diverges("learning_closed_loop")

    def test_skipping_the_writes_of_an_accepted_attempt(self, monkeypatch):
        monkeypatch.setattr(sharded_module, "apply_ops", lambda database, ops: None)
        assert _diverges("gated_open_loop")

    def test_dropping_the_op3_undo_count_patch(self, monkeypatch):
        """A worker always logs; an attempt OP3 covers must not report it."""
        monkeypatch.setattr(
            sharded_module, "dataclasses",
            types.SimpleNamespace(replace=lambda result, **_changes: result),
        )
        assert _diverges("tenancy_with_shedding")

    def test_not_buffering_a_local_attempts_writes(self, monkeypatch):
        """Workers must see what the coordinator wrote to their shard."""
        monkeypatch.setattr(ShardedBackend, "_buffer", lambda self, ops: None)
        assert _diverges("out_of_loop_submit")


class TestAReplayCannotAbort:
    """Why the replay has no ``MispredictionAbort`` handler and its stand-in
    context no ``mark_partition_finished``: with only the base partition
    locked, OP4 has no candidate to declare finished."""

    @pytest.mark.parametrize("bench", ["tatp", "tpcc", "smallbank"])
    def test_a_base_only_lock_set_offers_nothing_to_finish(self, bench):
        artifacts = trained(bench, PARTITIONS, 300, 17)
        instance = artifacts.benchmark
        houdini = Houdini(
            instance.catalog, artifacts.global_provider(), artifacts.mappings,
            HoudiniConfig(), learning=True,
        )
        engine = ExecutionEngine(instance.catalog, instance.database)
        replayed = set()
        for request in instance.generator.generate(400):
            planned = houdini.plan(request)
            base, runtime = planned.plan.base_partition, planned.runtime
            # Whatever the plan locked: the premise is about any monitor
            # watching an attempt that holds its base partition only.
            locked = PartitionSet.of([base])
            attempt = engine.execute_attempt(  # as a worker runs it
                request, base_partition=base, locked_partitions=locked
            )
            context = sharded_module._ReplayContext(base, locked)
            for invocation in attempt.invocations:
                runtime(context, invocation)
            assert runtime._compile_finish_candidates(context, PARTITIONS) == []
            assert not runtime.stats.finished_partitions
            replayed.add(request.procedure)
        assert replayed == {p.name for p in instance.catalog.procedures()}


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
#: Spec fields routing ``run_for(txns=...)`` through each event loop.
LOOPS = {"fast": {}, "gated-general": {"policy": "shortest-predicted"}}


def _open_sharded(artifacts, **spec_fields):
    return Cluster.open(
        ClusterSpec(
            benchmark="tatp", num_partitions=PARTITIONS,
            execution_backend="sharded", num_workers=2, **spec_fields,
        ),
        artifacts=artifacts,
    )


def _assert_closes_clean(session):
    processes = list(session.simulator._backend._procs)
    assert processes, "expected the run to start the worker pool"
    try:
        session.close()
    except SessionError:
        pass  # draining may run into the dead pool once more
    assert not any(process.is_alive() for process in processes)
    assert not session.simulator._backend._started
    session.simulator.close()  # a second close is a no-op


class TestWorkerFailure:
    @pytest.mark.parametrize("loop", LOOPS)
    def test_killed_worker_raises_session_error_promptly(self, loop):
        """SIGKILL while the coordinator waits on that worker's report."""
        session = _open_sharded(trained("tatp", PARTITIONS, 150, 3), **LOOPS[loop])
        session.simulator.begin()  # creates the backend; workers fork on demand
        backend = session.simulator._backend
        recv, calls = backend._recv, []

        def recv_after_a_kill(worker):
            calls.append(worker)
            if len(calls) == 200:
                os.kill(backend._procs[worker].pid, signal.SIGKILL)
            return recv(worker)

        backend._recv = recv_after_a_kill
        started = time.monotonic()
        with pytest.raises(SessionError, match="worker . died"):
            session.run_for(txns=1000)
        assert time.monotonic() - started < 30.0
        assert len(calls) >= 200, "the kill must land mid-run"
        _assert_closes_clean(session)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_worker_side_exception_raises_session_error(self, loop):
        """An attempt that raises on the worker (here: only there) comes back
        as ``REPORT_ERR``; the worker exits and the session says which
        procedure failed."""
        artifacts = trained("tatp", PARTITIONS, 150, 3)
        coordinator = os.getpid()
        for procedure in artifacts.benchmark.catalog.procedures():
            def run(context, *parameters, _run=procedure.run):
                if os.getpid() != coordinator:
                    raise RuntimeError("boom on the worker")
                return _run(context, *parameters)
            procedure.run = run
        session = _open_sharded(artifacts, **LOOPS[loop])
        with pytest.raises(SessionError, match="failed executing .*boom on the worker"):
            session.run_for(txns=1000)
        _assert_closes_clean(session)

    def test_close_shuts_down_worker_pool(self):
        session = _open_sharded(trained("tatp", PARTITIONS, 150, 5))
        session.run_for(txns=1000)
        backend = session.simulator._backend
        processes = list(backend._procs)
        assert processes, "expected the run to start the worker pool"
        session.close()
        assert not backend._started
        for process in processes:
            assert not process.is_alive()


class TestSpecValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SessionError, match="execution_backend"):
            ClusterSpec(execution_backend="threads")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SessionError, match="num_workers"):
            ClusterSpec(num_workers=0)

    def test_round_trip_preserves_backend_fields(self):
        spec = ClusterSpec(execution_backend="sharded", num_workers=3)
        data = spec.to_dict()
        assert data["execution_backend"] == "sharded"
        assert data["num_workers"] == 3
        again = ClusterSpec.from_kwargs(**data)
        assert again.execution_backend == "sharded"
        assert again.num_workers == 3
