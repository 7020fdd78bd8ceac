"""The self-tuning manager: observe -> detect -> retrain -> swap.

``SelfTuneManager`` is the piece that closes the loop inside a live session.
Houdini feeds it every attempt's transition path (from ``after_attempt``,
after maintenance has seen the same path); the manager

1. records the path into the procedure's bounded retraining tail and the
   drift detector's window,
2. completes any due retrain job — rebuilding the model from the frozen
   tail and swapping it in through the invalidation contracts — and
3. every ``check_interval_txns`` observations runs a drift check, starting
   a background retrain when the verdict says the model no longer matches
   the traffic.

All decisions are driven by observation counts and the simulator's
transaction clock, never the wall clock, so an enabled self-tuner preserves
byte-determinism: the same seed and workload schedule produce the same
drift verdicts, the same swap points, and the same bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..markov.model import MarkovModel
from .config import SelfTuneConfig
from .detector import DriftDetector
from .retrain import Retrainer, RetrainJob
from .swap import ModelSwapController


@dataclass
class SelfTuneStats:
    """Loop-level counters, surfaced through ``snapshot_metrics()``."""

    drifts_detected: int = 0
    retrains_started: int = 0
    retrains_completed: int = 0
    swaps: int = 0


class _ProcedureState:
    """Per-procedure bookkeeping of the manager."""

    __slots__ = ("observations", "tail", "job", "last_swap_obs", "swaps",
                 "last_swap_at_ms", "verdict")

    def __init__(self, tail_limit: int) -> None:
        self.observations = 0
        #: Recent complete transition paths (the retraining corpus).
        self.tail: deque = deque(maxlen=tail_limit)
        self.job: RetrainJob | None = None
        self.last_swap_obs = 0
        self.swaps = 0
        self.last_swap_at_ms: float | None = None
        self.verdict: dict | None = None


class SelfTuneManager:
    """Drives drift detection, background retraining and hot swaps."""

    def __init__(self, houdini, config: SelfTuneConfig | None = None,
                 clock=None) -> None:
        from ..houdini.providers import GlobalModelProvider

        if not isinstance(houdini.provider, GlobalModelProvider):
            raise ValueError(
                "self-tuning requires the global model provider "
                f"(got {type(houdini.provider).__name__})"
            )
        self.houdini = houdini
        self.config = config or SelfTuneConfig()
        #: Simulated-time source (ms); the session wires the simulator's
        #: transaction clock in.  Defaults to a frozen clock so unit tests
        #: can drive the manager without a simulator.
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.detector = DriftDetector(self.config)
        self.retrainer = Retrainer(self.config)
        self.swapper = ModelSwapController(houdini)
        self.stats = SelfTuneStats()
        self._states: dict[str, _ProcedureState] = {}

    # ------------------------------------------------------------------
    def _state(self, procedure: str) -> _ProcedureState:
        state = self._states.get(procedure)
        if state is None:
            state = self._states[procedure] = _ProcedureState(
                self.config.retrain_tail_txns
            )
        return state

    def observe(self, procedure: str, model: MarkovModel, transitions) -> None:
        """Feed one attempt's transition path; run the loop's due actions.

        Called by Houdini between transactions (``after_attempt``), which is
        what makes any swap performed here atomic: no plan is in flight
        while the provider's table changes.
        """
        now = self._clock()
        state = self._state(procedure)
        path = tuple(transitions)
        state.tail.append(path)
        self.detector.observe(procedure, path)
        state.observations += 1

        swapped = self._complete_due_retrain(procedure, state, now)
        if swapped:
            return
        if state.observations % self.config.check_interval_txns == 0:
            self._run_check(procedure, state, now)

    # ------------------------------------------------------------------
    def _complete_due_retrain(
        self, procedure: str, state: _ProcedureState, now: float
    ) -> bool:
        """Finish the procedure's retrain job if its simulated latency has
        elapsed; returns True when a swap happened."""
        job = state.job
        if job is None or not self.retrainer.ready(job, now):
            return False
        state.job = None
        old_model = self.houdini.provider.model_for_procedure(procedure)
        if old_model is None:
            return False
        new_model = self.retrainer.build(
            job, old_model,
            precompute_tables=self.houdini.config.precompute_tables,
        )
        self.stats.retrains_completed += 1
        self.swapper.swap(procedure, new_model)
        self.stats.swaps += 1
        state.swaps += 1
        state.last_swap_obs = state.observations
        state.last_swap_at_ms = now
        # The window measured the retired model's traffic; start clean so
        # the fresh model is judged only on what it actually serves.
        self.detector.reset(procedure)
        return True

    def _run_check(self, procedure: str, state: _ProcedureState, now: float) -> None:
        model = self.houdini.provider.model_for_procedure(procedure)
        if model is None or not model.processed:
            return
        maintenance = self.houdini.maintenance.for_model(model)
        verdict = self.detector.check(
            procedure,
            model,
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
        state.job = self.retrainer.start(procedure, tuple(state.tail), now)
        self.stats.retrains_started += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly state of the loop (for ``snapshot_metrics()``)."""
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
