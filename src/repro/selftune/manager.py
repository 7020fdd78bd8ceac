"""The self-tuning manager: observe -> detect -> retrain -> swap.

``SelfTuneManager`` is the piece that closes the loop inside a live session.
Houdini feeds it every attempt's transition path (from ``after_attempt``,
after maintenance has seen the same path); the manager

1. records the path in the procedure's ring of attempt paths — the one
   copy self-tuning keeps,
2. completes any due retrain job — rebuilding the model from the frozen
   tail (:func:`~repro.selftune.retrain.retrain_model`) and swapping it in
   with :meth:`~repro.houdini.houdini.Houdini.swap_model` — and
3. every ``check_interval_txns`` observations runs a drift check, starting
   a background retrain when the verdict says the model no longer matches
   the traffic.

The ring serves both readers.  The retraining tail is its last
``retrain_tail_txns`` paths.  The drift window is the trailing
``window_transitions`` pairs of the paths observed since the last swap (the
retired model's traffic does not judge its replacement), and the drift
score is one minus maintenance's accuracy measure over it
(:func:`~repro.houdini.maintenance.worst_overlap`): 0.0 when the window
matches the model, 1.0 when every observed target is one the model
considers impossible.  Only vertices with ``min_observations`` pairs in the
window take part, so a handful of unusual transactions cannot trip it.

All decisions are driven by observation counts and the simulator's
transaction clock, never the wall clock, so an enabled self-tuner preserves
byte-determinism: the same seed and workload schedule produce the same
drift verdicts, the same swap points, and the same bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from ..houdini.maintenance import worst_overlap
from ..markov.model import MarkovModel
from .config import SelfTuneConfig
from .retrain import RetrainJob, retrain_model


def divergence(model: MarkovModel, pairs, min_observations: int) -> float:
    """The drift score of ``(source, target)`` pairs against ``model``: one
    minus maintenance's worst overlap, counted in the pairs' order."""
    observed: dict = {}
    for source, target in pairs:
        targets = observed.setdefault(source, {})
        targets[target] = targets.get(target, 0) + 1
    return 1.0 - worst_overlap(model, observed, min_observations)


@dataclass
class SelfTuneStats:
    """Loop-level counters, surfaced through ``snapshot_metrics()``."""

    drifts_detected: int = 0
    retrains_started: int = 0
    retrains_completed: int = 0
    swaps: int = 0


class _ProcedureState:
    """Per-procedure bookkeeping of the manager."""

    __slots__ = ("observations", "paths", "pairs", "job", "last_swap_obs",
                 "swaps", "last_swap_at_ms", "verdict")

    def __init__(self) -> None:
        self.observations = 0
        #: Attempt paths, oldest first (each a tuple of (source, target)
        #: pairs), and the number of pairs they hold.
        self.paths: deque = deque()
        self.pairs = 0
        self.job: RetrainJob | None = None
        self.last_swap_obs = 0
        self.swaps = 0
        self.last_swap_at_ms: float | None = None
        self.verdict: dict | None = None

    def record(self, path: tuple, config: SelfTuneConfig) -> None:
        """Append one attempt's path; drop the oldest only while neither
        reader needs it: more than the tail remains, and the newer paths
        still fill the window."""
        paths = self.paths
        paths.append(path)
        self.pairs += len(path)
        self.observations += 1
        while (len(paths) > config.retrain_tail_txns
               and self.pairs - len(paths[0]) >= config.window_transitions):
            self.pairs -= len(paths.popleft())

    def tail(self, limit: int) -> tuple:
        """The last ``limit`` paths, oldest first (the retraining corpus)."""
        return tuple(islice(self.paths, max(0, len(self.paths) - limit), None))

    def window(self, limit: int) -> list:
        """The trailing ``limit`` pairs of the paths since the last swap,
        oldest first."""
        chunks = []
        since = self.observations - self.last_swap_obs
        for path in reversed(self.paths):
            if not since or not limit:
                break
            chunks.append(path[-limit:])
            limit -= len(chunks[-1])
            since -= 1
        return [pair for chunk in reversed(chunks) for pair in chunk]


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
        self.stats = SelfTuneStats()
        self._states: dict[str, _ProcedureState] = {}

    # ------------------------------------------------------------------
    def observe(self, procedure: str, transitions) -> None:
        """Feed one attempt's transition path; run the loop's due actions.

        Called by Houdini between transactions (``after_attempt``), which is
        what makes any swap performed here atomic: no plan is in flight
        while the provider's table changes.
        """
        now = self._clock()
        state = self._states.get(procedure)
        if state is None:
            state = self._states[procedure] = _ProcedureState()
        state.record(tuple(transitions), self.config)

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
        if job is None or now < job.ready_at_ms:
            return False
        state.job = None
        old_model = self.houdini.provider.model_for_procedure(procedure)
        if old_model is None:
            return False
        new_model = retrain_model(
            old_model, job.paths,
            precompute_tables=self.houdini.config.precompute_tables,
        )
        self.stats.retrains_completed += 1
        self.houdini.swap_model(procedure, new_model)
        self.stats.swaps += 1
        state.swaps += 1
        state.last_swap_obs = state.observations
        state.last_swap_at_ms = now
        return True

    def _run_check(self, procedure: str, state: _ProcedureState, now: float) -> None:
        model = self.houdini.provider.model_for_procedure(procedure)
        if model is None or not model.processed:
            return
        config = self.config
        accuracy = self.houdini.maintenance.for_model(model).stats.last_accuracy
        window = state.window(config.window_transitions)
        score = divergence(model, window, config.min_observations)
        # Maintenance measuring a bad accuracy declares drift even before
        # the window has filled up.
        degraded = accuracy < self.houdini.config.maintenance_accuracy_threshold
        state.verdict = {
            "procedure": procedure,
            "divergence": score,
            "accuracy": accuracy,
            "window": len(window),
            "drifted": bool(score > config.divergence_threshold or degraded),
        }
        if not state.verdict["drifted"]:
            return
        self.stats.drifts_detected += 1
        if state.job is not None:
            return
        if state.observations - state.last_swap_obs < config.cooldown_txns and state.swaps:
            return
        # retrain_min_tail_txns <= retrain_tail_txns, so the ring's length
        # decides this as well as the tail's would.
        if len(state.paths) < config.retrain_min_tail_txns:
            return
        state.job = RetrainJob(
            procedure=procedure,
            started_at_ms=now,
            ready_at_ms=now + config.retrain_latency_ms,
            paths=state.tail(config.retrain_tail_txns),
        )
        self.stats.retrains_started += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly state of the loop (for ``snapshot_metrics()``)."""
        procedures = {}
        for procedure in sorted(self._states):
            state = self._states[procedure]
            procedures[procedure] = {
                "observations": state.observations,
                "tail": min(len(state.paths), self.config.retrain_tail_txns),
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
