"""Unit tests for drift detection: the score of a pair list
(:func:`repro.selftune.manager.divergence`) and the manager's verdicts over
its drift window."""

from __future__ import annotations

from repro.markov import MarkovModel, PathStep
from repro.markov.vertex import COMMIT_KEY, VertexKey
from repro.selftune import SelfTuneConfig, SelfTuneManager
from repro.selftune.manager import divergence
from repro.types import PartitionSet, QueryType
from tests.conftest import SelfTuneHost, add_path


def _branching_model() -> tuple[MarkovModel, VertexKey, VertexKey, VertexKey]:
    """A model whose first query goes to partition 0 (90%) or 1 (10%)."""
    model = MarkovModel("Proc", 2)
    local = PathStep("Q", QueryType.READ, PartitionSet.of([0]), PartitionSet.of([]), 0)
    remote = PathStep("Q", QueryType.READ, PartitionSet.of([1]), PartitionSet.of([]), 0)
    for _ in range(90):
        add_path(model, [local], aborted=False)
    for _ in range(10):
        add_path(model, [remote], aborted=False)
    model.process()
    return model, model.begin, local.key(), remote.key()


def _pairs(begin, query_key, count: int) -> list:
    return [(begin, query_key), (query_key, COMMIT_KEY)] * count


def _feed(manager: SelfTuneManager, begin, query_key, count: int) -> None:
    for _ in range(count):
        manager.observe("Proc", ((begin, query_key), (query_key, COMMIT_KEY)))


def _verdict(manager: SelfTuneManager) -> dict:
    return manager.snapshot()["procedures"]["Proc"]["last_verdict"]


def _manager(model: MarkovModel, **config) -> SelfTuneManager:
    return SelfTuneManager(SelfTuneHost({"Proc": model}), SelfTuneConfig(**config))


class TestDivergenceScore:
    def test_matching_traffic_scores_near_zero(self):
        model, begin, local, remote = _branching_model()
        pairs = _pairs(begin, local, 90) + _pairs(begin, remote, 10)
        assert divergence(model, pairs, 20) < 0.05

    def test_shifted_traffic_scores_high(self):
        model, begin, _, remote = _branching_model()
        # The model says 10% remote; the live traffic is 100% remote.
        assert divergence(model, _pairs(begin, remote, 100), 20) >= 0.85

    def test_min_observations_gates_the_score(self):
        model, begin, _, remote = _branching_model()
        # 5 wildly divergent transactions are not enough evidence.
        assert divergence(model, _pairs(begin, remote, 5), 20) == 0.0

    def test_empty_window_scores_zero(self):
        model, _, _, _ = _branching_model()
        assert divergence(model, [], 20) == 0.0
        manager = _manager(model, check_interval_txns=1)
        manager.observe("Proc", ())
        assert _verdict(manager)["window"] == 0
        assert _verdict(manager)["divergence"] == 0.0

    def test_window_is_bounded(self):
        model, begin, local, remote = _branching_model()
        manager = _manager(
            model, window_transitions=40, min_observations=10, check_interval_txns=70
        )
        # An old remote burst must slide out once local traffic fills the
        # window (each transaction contributes two transitions).
        _feed(manager, begin, remote, 50)
        _feed(manager, begin, local, 20)
        assert _verdict(manager)["window"] == 40
        assert _verdict(manager)["divergence"] < 0.15

    def test_a_swap_clears_the_window(self):
        model, begin, _, remote = _branching_model()
        clock = [0.0]
        manager = SelfTuneManager(
            SelfTuneHost({"Proc": model}),
            SelfTuneConfig(min_observations=20, check_interval_txns=1,
                           retrain_min_tail_txns=1, retrain_latency_ms=10.0),
            clock=lambda: clock[0],
        )
        _feed(manager, begin, remote, 100)
        clock[0] = 10.0
        _feed(manager, begin, remote, 2)  # the swap, then a check
        assert manager.stats.swaps == 1
        assert _verdict(manager)["window"] == 2
        assert _verdict(manager)["divergence"] == 0.0


class TestVerdict:
    def test_drifted_verdict_on_divergence(self):
        model, begin, _, remote = _branching_model()
        manager = _manager(
            model, divergence_threshold=0.3, min_observations=20, check_interval_txns=100
        )
        _feed(manager, begin, remote, 100)
        verdict = _verdict(manager)
        assert verdict["drifted"] is True
        assert verdict["divergence"] >= 0.85
        assert verdict["procedure"] == "Proc"
        assert verdict["window"] == 200

    def test_clean_verdict_on_matching_traffic(self):
        model, begin, local, remote = _branching_model()
        manager = _manager(
            model, divergence_threshold=0.3, min_observations=20, check_interval_txns=100
        )
        manager.houdini.maintenance.for_model(model).stats.last_accuracy = 0.95
        _feed(manager, begin, local, 90)
        _feed(manager, begin, remote, 10)
        assert _verdict(manager)["drifted"] is False

    def test_accuracy_signal_declares_drift_without_divergence(self):
        """Maintenance measuring a bad accuracy (below the 0.75 maintenance
        threshold) trips the verdict even when the divergence window has not
        filled up yet."""
        model, begin, local, _ = _branching_model()
        manager = _manager(model, check_interval_txns=1)
        manager.houdini.maintenance.for_model(model).stats.last_accuracy = 0.4
        _feed(manager, begin, local, 1)
        verdict = _verdict(manager)
        assert verdict["drifted"] is True
        assert verdict["divergence"] == 0.0
