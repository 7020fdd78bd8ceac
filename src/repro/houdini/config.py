"""Houdini configuration.

Collects the knobs the paper discusses explicitly (confidence-coefficient
threshold, the ~175-200 query ceiling, the 75% maintenance accuracy trigger)
plus the handful of engineering constants the reproduction needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import schema
from ..schema import spec


@dataclass
class HoudiniConfig:
    """Tunable parameters of the prediction framework."""

    #: Confidence-coefficient threshold used to prune estimations (§4.3).
    #: The Fig. 13 experiment sweeps this between 0 and 1.
    confidence_threshold: float = spec(
        0.5, kind="float", ge=0, le=1, live="confidence_threshold"
    )

    #: Maximum predicted abort probability for which undo logging may still
    #: be disabled (OP3).  The paper is "more cautious" about this
    #: optimization because a wrong call is unrecoverable.
    abort_tolerance: float = spec(0.01, kind="float", ge=0, le=1)

    #: Lower bound applied on top of the confidence threshold before a
    #: partition is declared finished (OP4).  Declaring a partition finished
    #: and then touching it again forces an abort/restart, so the
    #: reproduction only takes the early-prepare gamble when the model is
    #: close to certain (see DESIGN.md's threshold-semantics note); the
    #: genuine OP4 wins — releasing partitions a distributed transaction is
    #: truly done with — all have finish probability 1.0 and are unaffected.
    op4_floor: float = spec(0.99, kind="float", ge=0, le=1)

    #: Estimation is skipped for transactions whose models would require
    #: walking more than this many states (§4.6 reports a practical limit of
    #: roughly 175-200 queries per transaction).
    max_path_length: int = spec(200, kind="int", ge=1)

    #: Minimum number of times a state must have been observed before its
    #: zero abort probability is trusted enough to disable undo logging at
    #: run time.  The paper stresses that a wrong OP3 call is unrecoverable,
    #: so the reproduction refuses to act on thinly-supported states.
    op3_min_observations: int = spec(10, kind="int", ge=0)

    #: Procedures for which prediction is disabled entirely (the paper turns
    #: Houdini off for AuctionMark's CheckWinningBids).
    disabled_procedures: frozenset[str] = frozenset()

    #: Whether vertex probability tables are pre-computed during the
    #: processing phase (the optimization §3.2 credits with a ~24% reduction
    #: in on-line computation time).
    precompute_tables: bool = spec(True, kind="bool")

    #: Run-time model maintenance: when the observed transition distribution
    #: of a vertex matches the model with less than this accuracy, the edge
    #: and vertex probabilities are recomputed from the counters (§4.5).
    maintenance_accuracy_threshold: float = spec(0.75, kind="float", ge=0, le=1)

    #: Minimum number of observed transitions before maintenance judges a
    #: vertex's distribution at all.
    maintenance_min_observations: int = spec(20, kind="int", ge=0)

    #: Optional sliding window (number of recent transitions) considered by
    #: model maintenance.  ``None`` keeps every observation since the last
    #: recomputation (the paper's behaviour); a window makes drift detection
    #: react faster to fast-changing workloads, the extension §4.5 defers to
    #: future work.
    maintenance_window: int | None = spec(
        None, kind="int", ge=1, optional=True, live="maintenance_window"
    )

    #: Whether restarted attempts become progressively more conservative.
    #: Restarts always run with undo logging enabled and lock every
    #: partition; with this flag set (the default) the early-prepare
    #: optimization (OP4) is additionally disabled from the second restart
    #: onward, and a partition whose early release caused a misprediction is
    #: never released again within the same transaction — which guarantees
    #: that the coordinator's retry loop converges.  Setting it to False
    #: keeps full OP4 behaviour on every restart (paper-literal, but a
    #: procedure the models chronically mispredict can then restart until the
    #: coordinator gives up).
    conservative_restarts: bool = spec(True, kind="bool")

    #: The one planning switch: whether finished walks (and the decisions
    #: derived from them) are memoized per binding signature and reused
    #: (:mod:`repro.houdini.cache`, the §6.3 remedy for short transactions
    #: whose estimation overhead dominates their run time).  Default **on**;
    #: off, every request pays a model walk.  Decisions and simulated
    #: metrics are identical either way — an entry is dropped whenever the
    #: model it was derived from changes, and a decision that could still
    #: flip as observation counts grow is never reused.
    enable_estimate_caching: bool = spec(True, kind="bool", live="estimate_caching")

    #: Maximum number of entries kept by the plan memo (LRU eviction).
    estimate_cache_max_entries: int = spec(4096, kind="int", ge=1)

    #: When True, a hit on a §6.3-eligible entry (non-abortable, always
    #: single-partition) charges :attr:`estimation_cache_hit_ms` of
    #: *simulated* time instead of the modelled estimation cost of the reused
    #: walk — the §6.3 what-if mode the ablation benchmark uses to reproduce
    #: the paper's estimation-overhead savings.  Off by default so that the
    #: memo is a pure wall-clock optimization: simulated metrics stay
    #: byte-identical with it on or off.
    estimate_cache_simulated_savings: bool = spec(False, kind="bool")

    #: Simulated cost charged for a cache hit (a dictionary lookup instead of
    #: a model walk) when :attr:`estimate_cache_simulated_savings` is set.
    estimation_cache_hit_ms: float = spec(0.001, kind="float", ge=0)

    #: Simulated-time model of the estimation overhead charged per
    #: transaction (Fig. 11): a fixed base cost plus a cost per candidate
    #: state examined and per state on the chosen path.  Wall-clock Python
    #: time is also measured and reported, but charging a modelled cost keeps
    #: the simulator deterministic and comparable to the paper's Java system.
    estimation_base_ms: float = spec(0.01, kind="float", ge=0)
    estimation_per_candidate_ms: float = spec(0.002, kind="float", ge=0)
    estimation_per_state_ms: float = spec(0.010, kind="float", ge=0)

    def __post_init__(self) -> None:
        self.disabled_procedures = frozenset(self.disabled_procedures)
        schema.check(self, ValueError)

    to_dict = schema.to_dict

    @classmethod
    def from_dict(cls, data) -> "HoudiniConfig":
        return schema.from_dict(cls, data, ValueError, "houdini")

    def with_threshold(self, threshold: float) -> "HoudiniConfig":
        """Copy of this config with a different confidence threshold."""
        return replace(self, confidence_threshold=threshold)

    def estimation_cost_ms(self, work_units: int, path_states: int) -> float:
        """Simulated cost of computing one estimate (charged by the simulator)."""
        return (
            self.estimation_base_ms
            + self.estimation_per_candidate_ms * work_units
            + self.estimation_per_state_ms * path_states
        )
