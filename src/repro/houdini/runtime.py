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
* logs the attempt's transitions into the model (§4.5): once, when the
  attempt is sealed (:meth:`HoudiniRuntime.finish`).

A non-learning monitor of an initial plan replays its memo entry's OP3/OP4
schedule while the attempt follows the estimate, and records it while the
entry has none (``repro.houdini.cache``, "What an entry compiles").

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
from .cache import CachedEstimate
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
        entry: CachedEstimate | None = None,
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
        self.stats = RuntimeStats()
        self._current: VertexKey | None = model.begin if model is not None else None
        self._accumulated = EMPTY_PARTITION_SET
        # Read-only views of the estimated path (keys, and the vertices the
        # walk fetched for them): the walk is complete, so the lists are
        # shared, not copied.  Query ``i`` is expected at index ``i + 1``.
        self._expected = estimate.vertices
        self._expected_vertices = estimate.path_vertices
        #: How many transitions followed the estimate before the first
        #: deviation (set when the attempt deviates).
        self._followed = 0
        #: OP4 state fixed per attempt, built by the first query that may
        #: finish a partition: the floored confidence threshold and the
        #: unfinished candidates as ``(partition, first releasable query)``.
        self._finish_threshold = 0.0
        self._finish_candidates: list[tuple[PartitionId, int]] | None = None
        #: The plan-memo entry of an initial plan (unless learning), its
        #: recorded OP3/OP4 schedule (replayed while the attempt follows the
        #: estimate) or, while it has none, this attempt's steps so far.
        self._entry = entry = None if learn else entry
        self._schedule = self._recording = None
        if entry is not None:
            if entry.finish_candidates is not None:
                self._finish_threshold, self._finish_candidates = entry.finish_candidates
            self._schedule = entry.schedule
            if self._schedule is None:
                self._recording = []

    # ------------------------------------------------------------------
    # QueryListener interface
    # ------------------------------------------------------------------
    def __call__(self, context: TransactionContext, invocation: QueryInvocation) -> None:
        stats = self.stats
        observed = stats.queries_observed
        stats.queries_observed = observed + 1
        partitions = invocation.partitions
        if stats.finished_partitions:
            self._check_finished_partitions(partitions)
        model = self.model
        if model is None:
            return
        accumulated = self._accumulated
        # While the attempt tracks the initial estimate, the next state is
        # the precompiled expected-path vertex at the current index — no
        # VertexKey needs to be derived (or hashed) and the model need not
        # be probed at all: four field comparisons against what actually
        # executed, identity first (partition sets are mostly interned).
        key = vertex = None
        if not stats.deviated_from_estimate:
            index = observed + 1
            if index < len(self._expected):
                expected = self._expected[index]
                if (
                    expected.is_query
                    and expected.name == invocation.statement
                    and expected.counter == invocation.counter
                    and (expected.partitions is partitions or expected.partitions == partitions)
                    and (expected.previous is accumulated or expected.previous == accumulated)
                ):
                    key = expected
                    if index < len(self._expected_vertices):
                        vertex = self._expected_vertices[index]
                else:
                    stats.deviated_from_estimate = True
                    self._followed = observed
            else:
                stats.deviated_from_estimate = True
                self._followed = observed
        if key is None:
            key = VertexKey.query(
                invocation.statement, invocation.counter, partitions, accumulated
            )
        if vertex is None:
            vertex = model.find_vertex(key)
            if vertex is None:
                if not stats.deviated_from_estimate:
                    stats.deviated_from_estimate = True
                    self._followed = observed
                if self.learn:
                    # Only a learning attempt writes the model: a placeholder
                    # moves ``model.version``, and its first edge drops the
                    # source's view — evicting the memoized walks that read it.
                    vertex = model.add_placeholder(key, invocation.query_type)
                    stats.placeholders_added += 1
        if self._current is not None:
            # Transitions are buffered per attempt and logged into the
            # model in one call by :meth:`finish`.
            stats.transitions.append((self._current, key))
        self._current = key
        if partitions is not accumulated:
            self._accumulated = accumulated.union(partitions)
        if self._schedule is not None and not stats.deviated_from_estimate:
            step = self._schedule[observed]
            if step is not None:
                self._replay(context, observed, step)
        elif self._recording is not None:
            self._record_updates(context, observed, vertex)
        else:
            self._issue_updates(context, observed, vertex)

    # ------------------------------------------------------------------
    def _check_finished_partitions(self, partitions) -> None:
        """Abort if the query touches a partition already declared finished."""
        for partition_id in partitions:
            if partition_id in self.stats.finished_partitions:
                self.stats.finish_mispredicted = True
                raise MispredictionAbort(
                    partition_id,
                    reason=f"partition {partition_id} was declared finished (OP4) "
                    f"but was accessed again",
                )

    def _issue_updates(self, context: TransactionContext, observed: int, vertex) -> None:
        # An unknown state (no vertex, or a placeholder without a table)
        # says nothing until the model's probabilities are recomputed.
        table = vertex.table if vertex is not None else None
        if table is None:
            return
        finished = self.stats.finished_partitions
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
            and not finished
            and self.predicted_single_partition
            and table.abort <= 0.0
            and vertex.hits >= self.config.op3_min_observations
            and not self._may_need_unlocked_partition(context, table)
        ):
            context.disable_undo_logging()
            self._undo_disabled = True
            self.stats.undo_disabled_at_query = observed + 1
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
        candidates = self._finish_candidates
        if candidates is None:
            candidates = self._finish_candidates = self._compile_finish_candidates(
                context, table.num_partitions
            )
        threshold = self._finish_threshold
        finish = table.finish
        released = False
        for partition_id, not_before in candidates:
            if observed >= not_before and finish[partition_id] >= threshold:
                context.mark_partition_finished(partition_id)
                finished.add(partition_id)
                released = True
        if released:
            self._finish_candidates = [c for c in candidates if c[0] not in finished]

    def _record_updates(self, context: TransactionContext, observed: int, vertex) -> None:
        """Issue the updates and note what they did, for :meth:`finish` to
        keep as the entry's schedule."""
        undo_disabled = self._undo_disabled
        finished = self.stats.finished_partitions
        count, candidates = len(finished), self._finish_candidates
        self._issue_updates(context, observed, vertex)
        step = None
        if self._undo_disabled is not undo_disabled:  # then OP4 released nothing
            step = (True, ())
        elif len(finished) != count:
            # Released in candidate order; none was finished before.
            candidates = candidates or self._entry.finish_candidates[1]
            step = (False, tuple(p for p, _ in candidates if p in finished))
        self._recording.append(step)

    def _replay(self, context: TransactionContext, observed: int, step) -> None:
        """Apply one recorded schedule step: what :meth:`_issue_updates` did
        at this query of the estimated path."""
        undo_disabled, released = step
        if undo_disabled:
            context.disable_undo_logging()
            self._undo_disabled = True
            self.stats.undo_disabled_at_query = observed + 1
        finished = self.stats.finished_partitions
        for partition_id in released:
            context.mark_partition_finished(partition_id)
            finished.add(partition_id)
        if released:
            self._finish_candidates = [c for c in self._finish_candidates if c[0] not in finished]

    def _compile_finish_candidates(
        self, context: TransactionContext, num_partitions: int
    ) -> list[tuple[PartitionId, int]]:
        """The partitions OP4 may ever release in this attempt: locked, not
        the base partition (released at commit: nothing to early-prepare for
        the coordinator's own partition), not barred by ``never_finish``.
        None of that changes while finishes can still be declared — the lock
        set only grows by escalation, which needs undo logging off, and then
        OP4 is off too.  The mapping-based footprint guards each release: a
        partition the mappings say the transaction may touch is released only
        once its estimated last access has passed (never, when the estimate
        does not reach it); one outside the footprint as soon as the
        probability tables allow it.
        """
        config = self.config
        self._finish_threshold = max(config.confidence_threshold, config.op4_floor)
        locked = context.locked_partitions
        footprint = self.footprint
        last_access = self.estimate.finish_points()
        candidates = []
        for partition_id in range(num_partitions) if locked is None else locked:
            if partition_id == context.base_partition or partition_id in self.never_finish:
                continue
            if footprint is None or partition_id not in footprint:
                candidates.append((partition_id, 0))
            elif partition_id in last_access:
                candidates.append((partition_id, last_access[partition_id]))
        if self._entry is not None:
            self._entry.finish_candidates = (self._finish_threshold, candidates)
        return candidates

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
        """Seal the attempt: append the terminal transition, keep the
        recorded schedule when the attempt followed the estimate to its
        ``commit`` terminal and committed, and, when learning, log the whole
        per-attempt transition buffer into the model in one call.

        The transitions that followed the estimate run along edges the walk
        read, into vertices it fetched: they are handed over as known, so
        only the suffix after the first deviation and the terminal pair are
        probed in the model.
        """
        if self.model is None or self._current is None:
            return
        stats = self.stats
        transitions = stats.transitions
        followed = self._followed if stats.deviated_from_estimate else len(transitions)
        transitions.append((self._current, COMMIT_KEY if committed else ABORT_KEY))
        recording = self._recording
        if recording is not None and committed and not stats.deviated_from_estimate:
            if len(recording) + 2 == len(self._expected) and self._expected[-1] == COMMIT_KEY:
                self._entry.schedule = tuple(recording)
        if self.learn:
            self.model.log_transitions(
                transitions, self._expected_vertices[1:followed + 1]
            )
