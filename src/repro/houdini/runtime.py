"""Run-time transaction monitoring and optimization updates (paper §4.4).

A :class:`HoudiniRuntime` instance is attached to one execution attempt as a
query listener.  After every query it:

* advances the transaction's position in the Markov model (adding a
  placeholder vertex when the state is unknown and the attempt is learning),
* checks whether the transaction deviated from the initial path estimate,
* uses the pre-computed probability tables to issue the two run-time updates
  the paper describes — disabling undo logging once the transaction can no
  longer abort (OP3) and declaring partitions finished so the DBMS can send
  early-prepare messages and start speculative execution (OP4),
* records the transition counts that model maintenance (§4.5) uses.

Accessing a partition that was previously declared finished raises
:class:`~repro.errors.MispredictionAbort`, forcing the coordinator to restart
the transaction — the cost of a wrong OP4 call, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.context import TransactionContext
from ..errors import MispredictionAbort
from ..markov.model import MarkovModel
from ..markov.vertex import ABORT_KEY, COMMIT_KEY, VertexKey
from ..types import EMPTY_PARTITION_SET, PartitionId, QueryInvocation
from .config import HoudiniConfig
from .estimate import PathEstimate


@dataclass(slots=True)
class RuntimeStats:
    """What happened while monitoring one execution attempt."""

    queries_observed: int = 0
    deviated_from_estimate: bool = False
    placeholders_added: int = 0
    undo_disabled_at_query: int | None = None
    finished_partitions: set[PartitionId] = field(default_factory=set)
    finish_mispredicted: bool = False
    transitions: list[tuple[VertexKey, VertexKey]] = field(default_factory=list)


class HoudiniRuntime:
    """Per-attempt monitor driving OP3/OP4 updates."""

    def __init__(
        self,
        model: MarkovModel | None,
        estimate: PathEstimate,
        config: HoudiniConfig,
        *,
        predicted_single_partition: bool,
        undo_initially_disabled: bool,
        learn: bool = True,
        footprint: frozenset[PartitionId] | None = None,
        allow_early_prepare: bool = True,
        never_finish: frozenset[PartitionId] = frozenset(),
    ) -> None:
        self.model = model
        self.estimate = estimate
        self.config = config
        self.predicted_single_partition = predicted_single_partition
        self._undo_disabled = undo_initially_disabled
        self.learn = learn
        #: Whether OP4 (early prepare) may be issued at all for this attempt.
        #: Restarted attempts become progressively more conservative so that
        #: the coordinator's retry loop is guaranteed to converge.
        self.allow_early_prepare = allow_early_prepare
        #: Partitions that must never be declared finished during this
        #: attempt (they caused an early-prepare misprediction earlier in the
        #: same logical transaction).
        self.never_finish = never_finish
        #: Partitions that the parameter mappings say this request may touch.
        #: They are never declared finished before their predicted last use —
        #: a guard against early-prepare mispredictions turning into restarts.
        self.footprint = footprint
        self._predicted_finish_points = estimate.finish_points()
        self.stats = RuntimeStats()
        self._current: VertexKey | None = model.begin if model is not None else None
        self._accumulated = EMPTY_PARTITION_SET
        # Read-only view of the estimated path past the begin vertex; the
        # walk is complete once the estimate reaches the runtime, so sharing
        # the list (instead of copying it) is safe.
        self._expected = estimate.vertices
        self._expected_offset = 1

    # ------------------------------------------------------------------
    # QueryListener interface
    # ------------------------------------------------------------------
    def __call__(self, context: TransactionContext, invocation: QueryInvocation) -> None:
        stats = self.stats
        observed = stats.queries_observed
        stats.queries_observed = observed + 1
        self._check_finished_partitions(invocation)
        model = self.model
        if model is None:
            return
        # While the attempt tracks the initial estimate, the next state is
        # the precompiled expected-path vertex at the current index — no
        # VertexKey needs to be derived (or hashed) at all, just four field
        # comparisons against what actually executed.
        key = None
        if not stats.deviated_from_estimate:
            index = observed + self._expected_offset
            if index < len(self._expected):
                expected = self._expected[index]
                if (
                    expected.is_query
                    and expected.name == invocation.statement
                    and expected.counter == invocation.counter
                    and expected.partitions == invocation.partitions
                    and expected.previous == self._accumulated
                ):
                    key = expected
                else:
                    stats.deviated_from_estimate = True
            else:
                stats.deviated_from_estimate = True
        if key is None:
            key = VertexKey.query(
                invocation.statement,
                invocation.counter,
                invocation.partitions,
                self._accumulated,
            )
        # One model probe serves both the advance and the update decisions.
        vertex = model.find_vertex(key)
        if vertex is None:
            stats.deviated_from_estimate = True
            if self.learn:
                # Only a learning attempt writes the model: a placeholder
                # moves ``model.version`` and with it every memoized walk.
                vertex = model.add_placeholder(key, invocation.query_type)
                stats.placeholders_added += 1
        if self._current is not None:
            # Transitions are buffered per attempt and flushed into the
            # model in one batch by :meth:`finish`.
            stats.transitions.append((self._current, key))
        self._current = key
        self._accumulated = self._accumulated.union(invocation.partitions)
        self._issue_updates(context, key, vertex)

    # ------------------------------------------------------------------
    def _check_finished_partitions(self, invocation: QueryInvocation) -> None:
        """Abort if the query touches a partition already declared finished."""
        for partition_id in invocation.partitions:
            if partition_id in self.stats.finished_partitions:
                self.stats.finish_mispredicted = True
                raise MispredictionAbort(
                    partition_id,
                    reason=f"partition {partition_id} was declared finished (OP4) "
                    f"but was accessed again",
                )

    def _issue_updates(self, context: TransactionContext, key: VertexKey, vertex) -> None:
        # An unknown state (no vertex, or a placeholder without a table)
        # says nothing until the model's probabilities are recomputed.
        table = vertex.table if vertex is not None else None
        if table is None:
            return
        # OP3: disable undo logging once no path leads to the abort state.
        # The update is deliberately conservative (§4.3: "Houdini is more
        # cautious when estimating whether transactions could abort"): the
        # state must be well observed, must have zero residual abort
        # probability, and — because a rollback forced by an OP2
        # misprediction would be just as unrecoverable — must have no
        # residual probability of touching a partition outside the lock set.
        # Early-prepare gambles already taken this attempt (OP4) are a third
        # abort source: accessing a finished partition forces a restart, so
        # undo logging stays on while any finish declaration is pending.
        if (
            not self._undo_disabled
            and not self.stats.finished_partitions
            and self.predicted_single_partition
            and table.abort <= 0.0
            and vertex.hits >= self.config.op3_min_observations
            and not self._may_need_unlocked_partition(context, table)
        ):
            context.disable_undo_logging()
            self._undo_disabled = True
            self.stats.undo_disabled_at_query = self.stats.queries_observed
        # OP4: declare partitions finished when their finish probability
        # clears the (floored) confidence threshold.
        if not self.allow_early_prepare:
            return
        if self._undo_disabled:
            # The mirror of the OP3 guard above: a wrong finish declaration
            # forces an abort, and without an undo buffer that abort is
            # unrecoverable — so once logging is off, no new early-prepare
            # gambles are taken.
            return
        finish_threshold = max(self.config.confidence_threshold, self.config.op4_floor)
        if context.locked_partitions is None:
            candidate_partitions = range(table.num_partitions)
        else:
            candidate_partitions = context.locked_partitions
        for partition_id in candidate_partitions:
            if partition_id in self.stats.finished_partitions:
                continue
            if partition_id in self.never_finish:
                continue
            if partition_id == context.base_partition:
                # The base partition is released at commit; there is nothing
                # to early-prepare for the coordinator's own partition.
                continue
            if not self._finish_allowed(partition_id):
                continue
            if table.finish_probability(partition_id) >= finish_threshold:
                context.mark_partition_finished(partition_id)
                self.stats.finished_partitions.add(partition_id)

    def _finish_allowed(self, partition_id: PartitionId) -> bool:
        """Guard OP4 with the mapping-based footprint.

        A partition the parameter mappings say the transaction may touch is
        only released once the estimated last access to it has passed; a
        partition outside the footprint can be released as soon as the
        probability tables allow it.
        """
        if self.footprint is None or partition_id not in self.footprint:
            return True
        predicted_last = self._predicted_finish_points.get(partition_id)
        if predicted_last is None:
            return False
        return (self.stats.queries_observed - 1) >= predicted_last

    def _may_need_unlocked_partition(self, context: TransactionContext, table) -> bool:
        """Whether the transaction might still touch an unlocked partition.

        Two sources of evidence are combined: the parameter-mapping footprint
        (if every partition the mappings can name is already locked, an OP2
        misprediction is structurally impossible) and, failing that, the
        probability table of the current state.
        """
        if context.locked_partitions is None:
            return False
        locked = context.locked_partitions.as_frozenset()
        if self.footprint is not None and self.footprint <= locked:
            return False
        for partition_id in range(table.num_partitions):
            if partition_id in locked:
                continue
            if table.access_probability(partition_id) > 0.0:
                return True
        return False

    # ------------------------------------------------------------------
    def finish(self, committed: bool) -> None:
        """Seal the attempt: append the terminal transition and, when
        learning, flush the whole per-attempt transition buffer into the
        model in a single batch (one bulk call instead of one
        ``record_transition`` per monitored query)."""
        if self.model is None or self._current is None:
            return
        terminal = COMMIT_KEY if committed else ABORT_KEY
        self.stats.transitions.append((self._current, terminal))
        if self.learn:
            self.model.record_transitions(self.stats.transitions)
