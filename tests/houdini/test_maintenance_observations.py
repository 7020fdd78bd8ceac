"""Model maintenance's observed counters (§4.5): every transition since the
last recompute counts, and a recompute starts them over."""

from __future__ import annotations

import pytest

from repro.houdini import HoudiniConfig, ModelMaintenance
from repro.markov import MarkovModel, PathStep
from repro.markov.vertex import COMMIT_KEY, VertexKey
from repro.types import PartitionSet, QueryType
from tests.conftest import add_path


def _observe(maintenance: ModelMaintenance, transitions) -> None:
    """One attempt: the model logs its transitions, the maintenance folds
    them in."""
    maintenance.model.log_transitions(transitions)
    maintenance.fold()


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


class TestObservedCounters:
    def test_all_observations_accumulate(self):
        model, begin, local_key, _ = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig())
        for _ in range(50):
            _observe(maintenance, [(begin, local_key)])
        assert maintenance.stats.transitions_observed == 50
        # All 50 transitions still count toward the observed distribution.
        assert maintenance.vertex_accuracy(begin) == pytest.approx(0.9)
        assert sum(maintenance._observed[begin].values()) == 50

    def test_old_observations_are_never_forgotten(self):
        model, begin, local_key, remote_key = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig())
        for _ in range(30):
            _observe(maintenance, [(begin, remote_key)])
        for _ in range(30):
            _observe(maintenance, [(begin, local_key)])
        # The remote burst still weighs half the distribution.
        assert maintenance._observed[begin][remote_key] == 30

    def test_recompute_clears_the_observed_counters(self):
        model, begin, local_key, _ = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig())
        for _ in range(10):
            _observe(maintenance, [(begin, local_key)])
        maintenance.recompute()
        assert maintenance._observed == {}

    def test_check_triggers_recompute_on_sustained_drift(self):
        model, begin, local_key, remote_key = _branching_model()
        config = HoudiniConfig(
            maintenance_min_observations=20,
            maintenance_accuracy_threshold=0.75,
        )
        maintenance = ModelMaintenance(model, config)
        for _ in range(40):
            _observe(maintenance, [(begin, remote_key)])
        assert maintenance.check() is True
        assert maintenance.stats.recomputations == 1
        # The recomputation consumed (cleared) the observations.
        assert maintenance._observed == {}
