"""Tests for the CostModel's per-plan-shape cost-schedule cache."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro import pipeline
from repro.engine.engine import AttemptOutcome, AttemptResult
from repro.sim import ClusterSimulator, CostModel, SimulatorConfig
from repro.txn.plan import ExecutionPlan
from repro.types import PartitionSet, ProcedureRequest, QueryInvocation, QueryType
from tests.conftest import trained


def _attempt(partitions_per_query, committed=True, undo=0, finished=frozenset()):
    invocations = [
        QueryInvocation(
            statement=f"Q{i}", parameters=(), partitions=PartitionSet.of(p),
            counter=0, query_type=QueryType.READ,
        )
        for i, p in enumerate(partitions_per_query)
    ]
    return AttemptResult(
        outcome=AttemptOutcome.COMMITTED if committed else AttemptOutcome.USER_ABORT,
        procedure="P", parameters=(), base_partition=0,
        touched_partitions=PartitionSet.of(
            [pid for ps in partitions_per_query for pid in ps]
        ),
        invocations=invocations,
        undo_records_written=undo,
        finished_partitions=finished,
    )


def _plan(base=0, locked=(0,), estimation_ms=0.0):
    return ExecutionPlan(
        base_partition=base,
        locked_partitions=PartitionSet.of(locked),
        estimation_ms=estimation_ms,
    )


def _simulator(bench_name, transactions):
    artifacts = trained(bench_name, 4, 300, 17)
    return ClusterSimulator(
        artifacts.benchmark.catalog, artifacts.benchmark.database,
        artifacts.benchmark.generator, pipeline.make_strategy("houdini", artifacts),
        config=SimulatorConfig(total_transactions=transactions), benchmark_name=bench_name,
    )


class TestScheduleCache:
    def test_cached_timing_equals_fresh_computation(self):
        shapes = [
            (_plan(0, (0,)), _attempt([[0], [0]])),
            (_plan(0, (0, 1)), _attempt([[0], [1]], finished=frozenset({1}))),
            (_plan(1, (0, 1, 2)), _attempt([[1], [0], [2]], committed=False)),
            (_plan(0, (0,), estimation_ms=0.25), _attempt([[0]], undo=3)),
        ]
        cached_model = CostModel()
        for plan, attempt in shapes:
            first = cached_model.attempt_timing(plan, attempt, 4)
            again = cached_model.attempt_timing(plan, attempt, 4)  # cache hit
            fresh = CostModel().attempt_timing(plan, attempt, 4)
            for timing in (again, fresh):
                assert timing.total_ms == first.total_ms
                assert timing.execution_ms == first.execution_ms
                assert timing.coordination_ms == first.coordination_ms
                assert timing.planning_ms == first.planning_ms
                assert timing.setup_ms == first.setup_ms
                assert timing.release_offsets == first.release_offsets

    def test_estimation_ms_is_not_cached_into_the_shape(self):
        model = CostModel()
        attempt = _attempt([[0]])
        cheap = model.attempt_timing(_plan(estimation_ms=0.0), attempt, 4)
        costly = model.attempt_timing(_plan(estimation_ms=1.5), attempt, 4)
        assert costly.total_ms == pytest.approx(cheap.total_ms + 1.5)
        assert costly.estimation_ms == 1.5

    def test_clear_schedule_cache_after_constant_mutation(self):
        model = CostModel()
        plan, attempt = _plan(), _attempt([[0]])
        before = model.attempt_timing(plan, attempt, 4).total_ms
        model.query_local_ms *= 10
        model.clear_schedule_cache()
        after = model.attempt_timing(plan, attempt, 4).total_ms
        assert after > before

    def test_constant_mutation_invalidates_automatically(self):
        """Regression: mutating a ``*_ms`` constant on a live instance used
        to keep serving schedules computed with the old constants."""
        model = CostModel()
        plan, attempt = _plan(), _attempt([[0], [0]])
        before = model.attempt_timing(plan, attempt, 4)
        model.query_local_ms *= 10  # no manual clear_schedule_cache()
        after = model.attempt_timing(plan, attempt, 4)
        fresh = CostModel(query_local_ms=model.query_local_ms).attempt_timing(
            plan, attempt, 4
        )
        assert after.total_ms == fresh.total_ms
        assert after.execution_ms == fresh.execution_ms
        assert after.total_ms > before.total_ms

    def test_constant_mutation_resets_bypass_probation(self):
        model = CostModel()
        for i in range(600):
            plan = _plan(locked=(i % 4,), base=i % 4)
            model.attempt_timing(plan, _attempt([[i % 4]], undo=i), 4)
        assert model._cache_bypassed
        model.two_phase_commit_ms = 2.0
        assert not model._cache_bypassed
        assert model._cache_counts == [0, 0] and not model._schedule_cache

    def test_non_constant_assignment_keeps_the_cache(self):
        model = CostModel()
        plan, attempt = _plan(), _attempt([[0]])
        model.attempt_timing(plan, attempt, 4)
        assert model._schedule_cache
        model._cache_bypassed = model._cache_bypassed  # not a *_ms constant
        assert model._schedule_cache

    def test_adaptive_bypass_keeps_results_identical(self):
        model = CostModel()
        # Force the probation verdict: unique shapes only, no hits.
        for i in range(600):
            plan = _plan(locked=(i % 4,), base=i % 4)
            attempt = _attempt([[i % 4]], undo=i)  # unique shape per call
            got = model.attempt_timing(plan, attempt, 4)
            assert got == CostModel().attempt_timing(plan, attempt, 4)
        assert model._cache_bypassed  # unique shapes triggered the bypass

    def test_bypass_trips_on_the_probation_verdict_only(self):
        """Probes are counted in place; the verdict falls on the first miss
        at or past ``_CACHE_PROBATION`` probes with the hit rate under
        ``_CACHE_MIN_HIT_RATE`` — never earlier, never on a healthy cache."""
        model = CostModel()
        probation = model._CACHE_PROBATION
        for i in range(probation - 1):
            model.attempt_timing(_plan(), _attempt([[0]], undo=i), 4)
        assert model._cache_counts == [probation - 1, 0] and not model._cache_bypassed
        model.attempt_timing(_plan(), _attempt([[0]], undo=probation), 4)
        assert model._cache_bypassed and not model._schedule_cache
        healthy = CostModel()
        for i in range(2 * probation):
            healthy.attempt_timing(_plan(), _attempt([[0]], undo=i % 2), 4)
        healthy.attempt_timing(_plan(), _attempt([[0]], undo=7), 4)  # a late miss
        assert healthy._cache_counts == [2 * probation + 1, 2 * probation - 2]
        assert not healthy._cache_bypassed

    @pytest.mark.parametrize("bench_name", ["tatp", "tpcc"])
    def test_simulated_result_identical_bypassed_or_not(self, bench_name, monkeypatch):
        def run():
            simulator = _simulator(bench_name, 300)
            return simulator.run().to_dict(), simulator.cost_model

        cached, model = run()
        assert not model._cache_bypassed and model._cache_counts[1] > 0
        # A hit rate no cache can reach, judged on the first miss.
        monkeypatch.setattr(CostModel, "_CACHE_PROBATION", 1)
        monkeypatch.setattr(CostModel, "_CACHE_MIN_HIT_RATE", 2.0)
        bypassed, model = run()
        assert model._cache_bypassed and model._cache_counts == [1, 0]
        assert bypassed == cached


class TestSharedTiming:
    """A hit hands out the cached :class:`AttemptTiming` itself."""

    def test_one_object_per_shape_and_estimation_cost(self):
        model = CostModel()
        first = model.attempt_timing(_plan(estimation_ms=0.25), _attempt([[0], [0]]), 4)
        again = model.attempt_timing(_plan(estimation_ms=0.25), _attempt([[0], [0]]), 4)
        assert again is first
        assert model.attempt_timing(_plan(estimation_ms=0.25), _attempt([[0]]), 4) is not first
        assert len(model._schedule_cache) == 2
        # One timing per shape, at the cost it was last seen with: a moved
        # estimation cost is derived afresh and takes the shape's slot.
        costlier = model.attempt_timing(_plan(estimation_ms=0.5), _attempt([[0], [0]]), 4)
        assert costlier is not first
        assert costlier.total_ms == pytest.approx(first.total_ms + 0.25)
        assert model.attempt_timing(_plan(estimation_ms=0.5), _attempt([[0], [0]]), 4) is costlier
        back = model.attempt_timing(_plan(estimation_ms=0.25), _attempt([[0], [0]]), 4)
        assert back is not first and back == first
        assert len(model._schedule_cache) == 2
        assert model._cache_counts == [6, 2]
        # An abort is a different shape, whichever way the attempt failed.
        aborted = model.attempt_timing(
            _plan(estimation_ms=0.25), _attempt([[0], [0]], committed=False), 4
        )
        assert aborted is not first and aborted.total_ms > first.total_ms

    @pytest.mark.parametrize("constant", [
        field.name for field in dataclasses.fields(CostModel) if field.name.endswith("_ms")
    ])
    def test_assigning_any_constant_drops_the_shared_timing(self, constant):
        model = CostModel()
        plan, attempt = _plan(0, (0, 1)), _attempt([[0], [1]], committed=False, undo=2)
        before = model.attempt_timing(plan, attempt, 4)
        setattr(model, constant, getattr(model, constant) * 2)
        after = model.attempt_timing(plan, attempt, 4)
        assert after is not before
        fresh = CostModel(**{constant: getattr(model, constant)})
        assert after == fresh.attempt_timing(plan, attempt, 4)

    def test_a_timing_cannot_be_written(self):
        timing = CostModel().attempt_timing(_plan(), _attempt([[0]]), 4)
        for name in ("total_ms", "estimation_ms", "release_offsets"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(timing, name, 0.0)

    def test_replay_leaves_the_shared_timing_as_it_found_it(self):
        """The simulator's replay reads a shared timing once per attempt of
        its shape: a run must leave every cached timing equal to a fresh
        derivation from the same constants."""
        simulator = _simulator("tpcc", 200)
        seen = {}
        attempt_timing = CostModel.attempt_timing

        def recording(self, plan, attempt, num_partitions):
            timing = attempt_timing(self, plan, attempt, num_partitions)
            seen.setdefault(id(timing), (timing, copy.deepcopy(timing)))
            return timing

        CostModel.attempt_timing = recording
        try:
            simulator.run()
        finally:
            CostModel.attempt_timing = attempt_timing
        assert len(seen) > 10
        for timing, as_first_seen in seen.values():
            assert timing == as_first_seen


class TestBatchTimings:
    def test_attempt_timings_field_identical_to_per_attempt(self):
        """The batched replay API is the per-attempt probe, pair by pair —
        including when a restarted transaction repeats a plan shape."""
        plan_sp = _plan(0, (0,))
        plan_dist = _plan(0, (0, 1, 2, 3))
        attempt_fail = _attempt([[0], [0]], committed=False)
        attempt_retry = _attempt([[0], [1], [2]], finished=frozenset({1, 2}))
        pairs = [
            (plan_sp, attempt_fail),
            (plan_dist, attempt_retry),
            (plan_dist, attempt_retry),  # repeated shape → the shared timing
            (plan_sp, _attempt([[0]], undo=2)),
        ]
        batched = CostModel().attempt_timings(pairs, 4)
        reference = CostModel()
        singles = [
            reference.attempt_timing(plan, attempt, 4) for plan, attempt in pairs
        ]
        assert len(batched) == len(singles)
        assert batched[2] is batched[1]
        for got, want in zip(batched, singles):
            assert got.total_ms == want.total_ms
            assert got.estimation_ms == want.estimation_ms
            assert got.planning_ms == want.planning_ms
            assert got.setup_ms == want.setup_ms
            assert got.execution_ms == want.execution_ms
            assert got.coordination_ms == want.coordination_ms
            assert got.release_offsets == want.release_offsets


class TestAttemptPairAPI:
    def test_add_attempt_keeps_pairs_aligned(self):
        from repro.txn.record import TransactionRecord

        record = TransactionRecord(txn_id=1, request=ProcedureRequest.of("P", ()))
        plan_a, plan_b = _plan(), _plan(base=1, locked=(1,))
        attempt_a = _attempt([[0]], committed=False)
        attempt_b = _attempt([[1]])
        record.add_attempt(plan_a, attempt_a)
        record.add_attempt(plan_b, attempt_b)
        assert record.attempt_pairs() == [(plan_a, attempt_a), (plan_b, attempt_b)]
        assert record.attempt_count == 2
        assert record.plans == [plan_a, plan_b]
        assert record.attempts == [attempt_a, attempt_b]

    def test_directly_populated_records_are_repaired(self):
        from repro.txn.record import TransactionRecord

        record = TransactionRecord(txn_id=1, request=ProcedureRequest.of("P", ()))
        plan, attempt = _plan(), _attempt([[0]])
        record.plans.append(plan)
        record.attempts.append(attempt)
        assert record.attempt_pairs() == [(plan, attempt)]
