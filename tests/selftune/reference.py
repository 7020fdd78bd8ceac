"""The self-tuning manager's record as two copies: the oracle of
``tests/property/test_property_selftune_record.py``.

Before the manager kept one ring of attempt paths, each path was stored
twice: in the manager's per-procedure retraining tail (a
``deque(maxlen=retrain_tail_txns)`` of paths) and in the
:class:`DriftDetector`'s window (a ``deque(maxlen=window_transitions)`` of
pairs, cleared at every swap), which scored drift with its own copy of
maintenance's overlap loop.  :class:`ReferenceManager` is the manager's
loop over those two copies; retraining (``retrain_model``) and the swap
(``swap_model``) are shared with the production side.
"""

from __future__ import annotations

from collections import deque

from repro.markov.model import MarkovModel
from repro.selftune import RetrainJob, SelfTuneConfig, SelfTuneStats, retrain_model
from tests.conftest import edge_distribution


class DriftDetector:
    """Windowed divergence scoring between observed paths and the model."""

    def __init__(self, config: SelfTuneConfig | None = None) -> None:
        self.config = config or SelfTuneConfig()
        #: Per-procedure sliding windows of recent (source, target) pairs.
        self._windows: dict[str, deque] = {}

    def observe(self, procedure: str, transitions) -> None:
        """Feed one transaction's (source, target) transition pairs."""
        window = self._windows.get(procedure)
        if window is None:
            window = self._windows[procedure] = deque(
                maxlen=self.config.window_transitions
            )
        window.extend(transitions)

    def window_size(self, procedure: str) -> int:
        window = self._windows.get(procedure)
        return len(window) if window is not None else 0

    def reset(self, procedure: str) -> None:
        """Clear the procedure's window (called after a model swap)."""
        self._windows.pop(procedure, None)

    def score(self, procedure: str, model: MarkovModel) -> float:
        """Worst per-vertex divergence of the window against ``model``."""
        window = self._windows.get(procedure)
        if not window:
            return 0.0
        observed: dict = {}
        for source, target in window:
            counts = observed.get(source)
            if counts is None:
                counts = observed[source] = {}
            counts[target] = counts.get(target, 0) + 1
        worst = 0.0
        min_observations = self.config.min_observations
        for source, counts in observed.items():
            total = sum(counts.values())
            if total < min_observations:
                continue
            expected = edge_distribution(model, source)
            overlap = 0.0
            for target, count in counts.items():
                overlap += min(count / total, expected.get(target, 0.0))
            worst = max(worst, 1.0 - overlap)
        return worst

    def check(self, procedure: str, model: MarkovModel, *, accuracy: float = 1.0,
              accuracy_threshold: float = 0.0) -> dict:
        divergence = self.score(procedure, model)
        diverged = divergence > self.config.divergence_threshold
        degraded = accuracy < accuracy_threshold
        return {
            "procedure": procedure,
            "divergence": divergence,
            "accuracy": accuracy,
            "window": self.window_size(procedure),
            "drifted": bool(diverged or degraded),
        }


class _ReferenceState:
    def __init__(self, tail_limit: int) -> None:
        self.observations = 0
        self.tail: deque = deque(maxlen=tail_limit)
        self.job: RetrainJob | None = None
        self.last_swap_obs = 0
        self.swaps = 0
        self.last_swap_at_ms: float | None = None
        self.verdict: dict | None = None


class ReferenceManager:
    """The observe -> detect -> retrain -> swap loop over a tail deque and a
    :class:`DriftDetector`."""

    def __init__(self, houdini, config: SelfTuneConfig, clock) -> None:
        self.houdini = houdini
        self.config = config
        self._clock = clock
        self.detector = DriftDetector(config)
        self.stats = SelfTuneStats()
        self._states: dict[str, _ReferenceState] = {}

    def observe(self, procedure: str, transitions) -> None:
        now = self._clock()
        state = self._states.get(procedure)
        if state is None:
            state = self._states[procedure] = _ReferenceState(self.config.retrain_tail_txns)
        path = tuple(transitions)
        state.tail.append(path)
        self.detector.observe(procedure, path)
        state.observations += 1
        if self._complete_due_retrain(procedure, state, now):
            return
        if state.observations % self.config.check_interval_txns == 0:
            self._run_check(procedure, state, now)

    def _complete_due_retrain(self, procedure: str, state: _ReferenceState, now: float) -> bool:
        job = state.job
        if job is None or not now >= job.ready_at_ms:
            return False
        state.job = None
        old_model = self.houdini.provider.model_for_procedure(procedure)
        if old_model is None:
            return False
        new_model = retrain_model(
            old_model, job.paths, precompute_tables=self.houdini.config.precompute_tables
        )
        self.stats.retrains_completed += 1
        self.houdini.swap_model(procedure, new_model)
        self.stats.swaps += 1
        state.swaps += 1
        state.last_swap_obs = state.observations
        state.last_swap_at_ms = now
        self.detector.reset(procedure)
        return True

    def _run_check(self, procedure: str, state: _ReferenceState, now: float) -> None:
        model = self.houdini.provider.model_for_procedure(procedure)
        if model is None or not model.processed:
            return
        maintenance = self.houdini.maintenance.for_model(model)
        verdict = self.detector.check(
            procedure, model,
            accuracy=maintenance.stats.last_accuracy,
            accuracy_threshold=self.houdini.config.maintenance_accuracy_threshold,
        )
        state.verdict = verdict
        if not verdict["drifted"]:
            return
        self.stats.drifts_detected += 1
        if state.job is not None:
            return
        if state.observations - state.last_swap_obs < self.config.cooldown_txns and state.swaps:
            return
        if len(state.tail) < self.config.retrain_min_tail_txns:
            return
        state.job = RetrainJob(
            procedure=procedure,
            started_at_ms=now,
            ready_at_ms=now + self.config.retrain_latency_ms,
            paths=tuple(state.tail),
        )
        self.stats.retrains_started += 1

    def snapshot(self) -> dict:
        procedures = {}
        for procedure in sorted(self._states):
            state = self._states[procedure]
            procedures[procedure] = {
                "observations": state.observations,
                "tail": len(state.tail),
                "retrain_pending": state.job is not None,
                "swaps": state.swaps,
                "last_swap_at_ms": state.last_swap_at_ms,
                "last_verdict": dict(state.verdict) if state.verdict else None,
            }
        return {
            "drifts_detected": self.stats.drifts_detected,
            "retrains_started": self.stats.retrains_started,
            "retrains_completed": self.stats.retrains_completed,
            "swaps": self.stats.swaps,
            "procedures": procedures,
        }
