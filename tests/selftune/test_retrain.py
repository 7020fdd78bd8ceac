"""Unit tests for background retraining (:mod:`repro.selftune.retrain` and
the manager's retrain jobs)."""

from __future__ import annotations

import pytest

from repro.markov import MarkovModel, PathStep
from repro.markov.vertex import COMMIT_KEY, VertexKey
from repro.selftune import SelfTuneConfig, SelfTuneManager
from repro.selftune.retrain import retrain_model
from repro.types import PartitionSet, QueryType
from tests.conftest import SelfTuneHost, add_path, edge_distribution


def _trained_model() -> tuple[MarkovModel, VertexKey, VertexKey, VertexKey]:
    model = MarkovModel("Proc", 2)
    local = PathStep("Q", QueryType.READ, PartitionSet.of([0]), PartitionSet.of([]), 0)
    remote = PathStep("Q", QueryType.WRITE, PartitionSet.of([1]), PartitionSet.of([]), 0)
    for _ in range(90):
        add_path(model, [local], aborted=False)
    for _ in range(10):
        add_path(model, [remote], aborted=False)
    model.process()
    return model, model.begin, local.key(), remote.key()


def _path(begin, query_key):
    return ((begin, query_key), (query_key, COMMIT_KEY))


class TestRetrainModel:
    def test_rebuilds_from_paths_with_shifted_distribution(self):
        old, begin, local, remote = _trained_model()
        # The recorded tail is 30% local / 70% remote — the opposite mix.
        paths = [_path(begin, local)] * 30 + [_path(begin, remote)] * 70
        new = retrain_model(old, paths)
        assert new is not old
        assert new.procedure == old.procedure
        assert new.processed
        distribution = edge_distribution(new, new.begin)
        assert distribution[local] == pytest.approx(0.3)
        assert distribution[remote] == pytest.approx(0.7)

    def test_support_counters_reflect_the_tail(self):
        """The OP3 selector reads begin hits and transactions_observed as its
        sampling-support evidence; both must equal the tail size."""
        old, begin, local, _ = _trained_model()
        paths = [_path(begin, local)] * 40
        new = retrain_model(old, paths)
        assert new.transactions_observed == 40
        assert new.vertex(new.begin).hits == 40

    def test_query_types_backfilled_from_old_model(self):
        old, begin, local, remote = _trained_model()
        new = retrain_model(old, [_path(begin, local), _path(begin, remote)])
        assert new.find_vertex(local).query_type == QueryType.READ
        assert new.find_vertex(remote).query_type == QueryType.WRITE

    def test_empty_tail_produces_empty_processed_model(self):
        old, _, _, _ = _trained_model()
        new = retrain_model(old, [])
        assert new.processed
        assert new.transactions_observed == 0

    def test_precompute_tables_flag_is_forwarded(self):
        old, begin, local, _ = _trained_model()
        with_tables = retrain_model(old, [_path(begin, local)] * 5,
                                    precompute_tables=True)
        assert with_tables.find_vertex(local).table is not None


class TestRetrainer:
    """A retrain as the manager runs it: a drift verdict starts a job over
    the frozen tail, and the rebuilt model lands once the simulated latency
    has elapsed."""

    @staticmethod
    def _drifting_manager(clock, check_interval_txns=3):
        old, begin, _, remote = _trained_model()
        manager = SelfTuneManager(
            SelfTuneHost({"Proc": old}),
            # The model says 10% remote; every observed transaction is remote.
            SelfTuneConfig(check_interval_txns=check_interval_txns, min_observations=1,
                           retrain_min_tail_txns=1, retrain_latency_ms=10.0),
            clock=lambda: clock[0],
        )
        return manager, old, _path(begin, remote)

    def test_job_freezes_the_tail_and_schedules_completion(self):
        clock = [100.0]
        manager, _, path = self._drifting_manager(clock)
        for _ in range(3):
            manager.observe("Proc", path)
        job = manager._states["Proc"].job
        assert job.procedure == "Proc"
        assert job.started_at_ms == 100.0
        assert job.ready_at_ms == 110.0
        assert isinstance(job.paths, tuple) and len(job.paths) == 3
        # The frozen copy does not alias the recorded paths.
        manager.observe("Proc", path)
        assert len(job.paths) == 3

    def test_ready_obeys_simulated_latency(self):
        clock = [100.0]
        manager, old, path = self._drifting_manager(clock)
        for _ in range(3):
            manager.observe("Proc", path)
        clock[0] = 105.0
        manager.observe("Proc", path)
        assert manager.houdini.provider.model_for_procedure("Proc") is old
        clock[0] = 110.0
        manager.observe("Proc", path)
        assert manager.stats.retrains_completed == 1
        assert manager.houdini.provider.model_for_procedure("Proc") is not old

    def test_build_returns_a_processed_replacement(self):
        clock = [0.0]
        manager, old, path = self._drifting_manager(clock, check_interval_txns=8)
        for _ in range(8):
            manager.observe("Proc", path)
        clock[0] = 10.0
        manager.observe("Proc", path)
        new = manager.houdini.provider.model_for_procedure("Proc")
        assert new is not old
        assert new.processed
        assert new.transactions_observed == 8
