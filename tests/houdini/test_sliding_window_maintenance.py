"""Tests for sliding-window model maintenance (§4.5 future-work extension)."""

from __future__ import annotations

import pytest

from repro.houdini import HoudiniConfig, ModelMaintenance
from repro.markov import MarkovModel, PathStep
from repro.markov.vertex import COMMIT_KEY, VertexKey
from repro.types import PartitionSet, QueryType


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
        model.add_path([local], aborted=False)
    for _ in range(10):
        model.add_path([remote], aborted=False)
    model.process()
    return model, model.begin, local.key(), remote.key()


class TestUnwindowedMaintenance:
    def test_all_observations_accumulate(self):
        model, begin, local_key, _ = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig(maintenance_window=None))
        for _ in range(50):
            _observe(maintenance, [(begin, local_key)])
        assert maintenance.stats.transitions_observed == 50
        # All 50 transitions still count toward the observed distribution.
        assert maintenance.vertex_accuracy(begin) == pytest.approx(0.9)
        assert sum(maintenance._observed[begin].values()) == 50


class TestWindowedMaintenance:
    def test_window_caps_observed_counts(self):
        model, begin, local_key, remote_key = _branching_model()
        config = HoudiniConfig(maintenance_window=20)
        maintenance = ModelMaintenance(model, config)
        for _ in range(100):
            _observe(maintenance, [(begin, local_key)])
        assert sum(maintenance._observed[begin].values()) == 20
        assert maintenance.stats.transitions_observed == 100

    def test_old_drift_is_forgotten(self):
        """A burst of remote traffic followed by a long local phase should
        stop looking like drift once the burst slides out of the window."""
        model, begin, local_key, remote_key = _branching_model()
        config = HoudiniConfig(
            maintenance_window=30, maintenance_min_observations=10
        )
        maintenance = ModelMaintenance(model, config)
        # Burst: 30 remote transitions (strongly contradicts the 90/10 model).
        for _ in range(30):
            _observe(maintenance, [(begin, remote_key)])
        drifted_accuracy = maintenance.vertex_accuracy(begin)
        # Recovery: 30 local transitions push the burst out of the window.
        for _ in range(30):
            _observe(maintenance, [(begin, local_key)])
        recovered_accuracy = maintenance.vertex_accuracy(begin)
        assert recovered_accuracy > drifted_accuracy
        # Only the window's worth of transitions is considered.
        assert sum(maintenance._observed[begin].values()) == 30

    def test_unwindowed_maintenance_never_forgets(self):
        model, begin, local_key, remote_key = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig(maintenance_window=None))
        for _ in range(30):
            _observe(maintenance, [(begin, remote_key)])
        for _ in range(30):
            _observe(maintenance, [(begin, local_key)])
        # Without a window the remote burst still weighs half the distribution.
        assert maintenance._observed[begin][remote_key] == 30

    def test_recompute_clears_the_window(self):
        model, begin, local_key, _ = _branching_model()
        config = HoudiniConfig(maintenance_window=10)
        maintenance = ModelMaintenance(model, config)
        for _ in range(10):
            _observe(maintenance, [(begin, local_key)])
        maintenance.recompute()
        assert sum(
            sum(counts.values()) for counts in maintenance._observed.values()
        ) == 0
        assert len(maintenance._window) == 0

class TestWindowReconfiguration:
    """``set_window`` mid-run: the window must rebuild from the recent tail
    instead of silently keeping the unbounded all-time history."""

    def test_enabling_a_window_rebuilds_counters_from_the_tail(self):
        model, begin, local_key, remote_key = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig(maintenance_window=None))
        for _ in range(80):
            _observe(maintenance, [(begin, remote_key)])
        for _ in range(20):
            _observe(maintenance, [(begin, local_key)])
        # Unwindowed: all 100 transitions counted.
        assert sum(maintenance._observed[begin].values()) == 100

        maintenance.set_window(20)

        # Only the 20 most recent transitions (all local) survive.
        assert sum(maintenance._observed[begin].values()) == 20
        assert maintenance._observed[begin].get(remote_key, 0) == 0
        assert maintenance._observed[begin][local_key] == 20
        assert len(maintenance._window) == 20
        assert maintenance.config.maintenance_window == 20

    def test_shrinking_a_window_drops_the_oldest_entries(self):
        model, begin, local_key, remote_key = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig(maintenance_window=50))
        for _ in range(30):
            _observe(maintenance, [(begin, remote_key)])
        for _ in range(10):
            _observe(maintenance, [(begin, local_key)])
        maintenance.set_window(10)
        assert maintenance._observed[begin].get(remote_key, 0) == 0
        assert maintenance._observed[begin][local_key] == 10

    def test_disabling_the_window_keeps_current_counters(self):
        model, begin, local_key, _ = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig(maintenance_window=10))
        for _ in range(30):
            _observe(maintenance, [(begin, local_key)])
        assert sum(maintenance._observed[begin].values()) == 10
        maintenance.set_window(None)
        assert maintenance._window is None
        # Counters keep accumulating unbounded from here on.
        for _ in range(30):
            _observe(maintenance, [(begin, local_key)])
        assert sum(maintenance._observed[begin].values()) == 40

    def test_invalid_window_values_rejected(self):
        model, _, _, _ = _branching_model()
        maintenance = ModelMaintenance(model, HoudiniConfig())
        with pytest.raises(ValueError, match="window"):
            maintenance.set_window(0)
        with pytest.raises(ValueError, match="window"):
            maintenance.set_window(True)
        with pytest.raises(ValueError, match="window"):
            maintenance.set_window("10")

    def test_registry_resizes_every_tracked_maintenance(self):
        from repro.houdini import MaintenanceRegistry

        model_a, begin_a, local_a, _ = _branching_model()
        model_b, begin_b, local_b, _ = _branching_model()
        registry = MaintenanceRegistry(HoudiniConfig(maintenance_window=None))
        for model, begin, key in ((model_a, begin_a, local_a),
                                  (model_b, begin_b, local_b)):
            maintenance = registry.for_model(model)
            for _ in range(50):
                _observe(maintenance, [(begin, key)])
        registry.set_window(15)
        assert registry.config.maintenance_window == 15
        for maintenance in registry.maintenances():
            assert sum(
                sum(counts.values()) for counts in maintenance._observed.values()
            ) == 15


class TestWindowedCheck:
    def test_windowed_check_triggers_recompute_on_sustained_drift(self):
        model, begin, local_key, remote_key = _branching_model()
        config = HoudiniConfig(
            maintenance_window=40,
            maintenance_min_observations=20,
            maintenance_accuracy_threshold=0.75,
        )
        maintenance = ModelMaintenance(model, config)
        for _ in range(40):
            _observe(maintenance, [(begin, remote_key)])
        assert maintenance.check() is True
        assert maintenance.stats.recomputations == 1
        # The recomputation consumed (cleared) the windowed observations.
        assert sum(
            sum(counts.values()) for counts in maintenance._observed.values()
        ) == 0
