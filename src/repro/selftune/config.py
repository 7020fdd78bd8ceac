"""Configuration for the self-tuning subsystem.

The defaults close the loop on the time scale the paper's maintenance story
operates at: drift checks every ~50 transactions per procedure, a divergence
window of a few hundred transitions, and a retrain latency of a few simulated
milliseconds (the paper quotes <= 5 ms for an on-line recomputation; a full
rebuild from the tail is modelled slightly slower).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import schema
from ..schema import spec


@dataclass
class SelfTuneConfig:
    """Tunables of the observe -> detect -> retrain -> swap loop."""

    #: Run a drift check every N observed transactions of a procedure.
    check_interval_txns: int = spec(50, kind="int", ge=1)
    #: Sliding window of recent (source, target) transitions the drift
    #: check scores divergence over, per procedure.
    window_transitions: int = spec(400, kind="int", ge=1)
    #: Drift verdict when the worst per-vertex divergence (1 - distribution
    #: overlap with the model's expectations) exceeds this.
    divergence_threshold: float = spec(0.25, kind="float", gt=0, le=1)
    #: A vertex's observed transitions must reach this count inside the
    #: window before its divergence is trusted.
    min_observations: int = spec(20, kind="int", ge=1)
    #: How many recent transactions (complete transition paths) are recorded
    #: per procedure as the retraining corpus.
    retrain_tail_txns: int = spec(512, kind="int", ge=1)
    #: A retrain must have at least this many recorded transactions to work
    #: with; drift verdicts before that only count, they do not retrain.
    retrain_min_tail_txns: int = spec(64, kind="int", ge=1)
    #: Simulated milliseconds a background retrain takes before the rebuilt
    #: model is ready to swap in.
    retrain_latency_ms: float = spec(10.0, kind="float", ge=0)
    #: After a swap, no new retrain starts for this many observed
    #: transactions of the procedure (lets the fresh model settle).
    cooldown_txns: int = spec(200, kind="int", ge=0)

    def __post_init__(self) -> None:
        schema.check(self, ValueError)
        if self.retrain_min_tail_txns > self.retrain_tail_txns:
            raise ValueError("retrain_min_tail_txns cannot exceed retrain_tail_txns")

    to_dict = schema.to_dict

    @classmethod
    def from_dict(cls, data: dict) -> "SelfTuneConfig":
        return schema.from_dict(cls, data, ValueError, "selftune")
