"""The Houdini facade (paper §4, Fig. 6).

``Houdini`` ties the pieces together: given the off-line artifacts (Markov
models behind a :class:`~repro.houdini.providers.ModelProvider`, parameter
mappings) it produces, for each incoming request, an execution plan plus a
run-time monitor, and afterwards feeds what actually happened back into model
maintenance and the per-procedure statistics that Table 4 reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .. import schema
from ..catalog.schema import Catalog
from ..engine.engine import AttemptResult
from ..mapping.parameter_mapping import ParameterMappingSet
from ..markov.model import MarkovModel
from ..txn.plan import ExecutionPlan
from ..types import ProcedureRequest
from .cache import EstimateCache
from .config import HoudiniConfig
from .estimate import PathEstimate
from .estimator import PathEstimator
from .maintenance import MaintenanceRegistry
from .optimizations import OptimizationDecision, OptimizationSelector
from .providers import ModelProvider
from .runtime import HoudiniRuntime
from .stats import HoudiniStats, ProcedureStats


@dataclass(slots=True)
class HoudiniPlan:
    """Everything Houdini produced for one transaction attempt."""

    plan: ExecutionPlan
    runtime: HoudiniRuntime
    estimate: PathEstimate
    decision: OptimizationDecision
    #: The model the attempt was planned on (``None`` when the procedure has
    #: none; the runtime monitors it unless the estimate is degenerate); what
    #: the attempt learned belongs to it.
    model: MarkovModel | None
    #: The procedure's Table 4 counters, probed once per planned attempt.
    stats: ProcedureStats


class Houdini:
    """On-line prediction framework wrapping estimator + selector + runtime."""

    def __init__(
        self,
        catalog: Catalog,
        provider: ModelProvider,
        mappings: ParameterMappingSet,
        config: HoudiniConfig | None = None,
        *,
        learning: bool = True,
    ) -> None:
        self.catalog = catalog
        self.provider = provider
        self.mappings = mappings
        self.config = config or HoudiniConfig()
        self.estimator = PathEstimator(catalog, provider, mappings, self.config)
        self.selector = OptimizationSelector(
            self.config,
            catalog.num_partitions,
            catalog.scheme.partitions_per_node,
        )
        self.maintenance = MaintenanceRegistry(self.config)
        #: The plan memo (§6.3); ``None`` when switched off in the
        #: configuration.
        self.estimate_cache: EstimateCache | None = (
            EstimateCache(self.config) if self.config.enable_estimate_caching else None
        )
        self.stats = HoudiniStats()
        #: Whether run-time execution paths update the models (§4.4/§4.5).
        #: The off-line accuracy evaluation (Table 3) turns this off.
        self.learning = learning
        self._maintenance_interval = 200
        self._since_maintenance = 0
        #: Optional self-tuning observer (``repro.selftune``): fed every
        #: attempt's transition path after maintenance has seen it, so drift
        #: detection and hot model swaps happen between transactions.
        self._selftune = None

    def set_selftune(self, observer) -> None:
        """Attach (or with ``None`` detach) the self-tuning observer."""
        self._selftune = observer

    # ------------------------------------------------------------------
    def _memo_key(self, request: ProcedureRequest, model, signature):
        """Memo key of a request, or ``None`` when its walk is not memoizable
        (nothing vouches for the walk, or it would be degenerate)."""
        if (
            signature is None
            or model is None
            or not model.processed
            or request.procedure in self.config.disabled_procedures
        ):
            return None
        return (request.procedure, id(model), signature)

    def _resolve(self, request: ProcedureRequest, stats: ProcedureStats):
        """One memo probe, then at most one model walk.

        Returns ``(estimate, entry, model, footprint)``; ``entry`` is the
        memo entry that served or now holds the walk (``None`` when the walk
        is not memoized).  The wall-clock span goes to the procedure's
        measured estimation time (Table 4, ``stats``) — on the statistics
        only: estimates are shared between requests and stay
        deterministic.  ``time.perf_counter`` is the one
        host clock the code reads, because it measures the planner's own
        cost and never feeds a simulated decision; charging it as simulated
        cost fails ``tests/sim/test_rerun_determinism.py``.
        """
        started = time.perf_counter()
        footprint, signature = self.estimator.footprint_and_signature(request)
        model = self.provider.model_for(request)
        memo = self.estimate_cache
        key = entry = None
        if memo is not None:
            key = self._memo_key(request, model, signature)
            entry = memo.lookup(key, model)
        if entry is not None:
            estimate = entry.estimate
        else:
            estimate = self.estimator.estimate(request, model)
            if key is not None:
                entry = memo.store(key, model, estimate)
        stats.estimation_wall_ms_total += (time.perf_counter() - started) * 1000.0
        return estimate, entry, model, footprint

    def _decide(self, request, estimate, model, footprint, entry) -> OptimizationDecision:
        """Select the optimizations and memoize the decision with the walk.

        While the model learns, a support-limited decision can flip as
        observation counts grow with nothing the walk read replaced, so it
        is re-derived per request until it no longer is.  Everything else a
        decision reads from the model is a table the walk recorded, so the
        memo's validity rule covers the decision too.
        """
        decision = self.selector.decide(request, estimate, model)
        if entry is not None and not (self.learning and decision.support_limited):
            entry.decision = decision
            entry.eligible = self.estimate_cache.eligible(estimate, decision, footprint)
        return decision

    def _charged_ms(self, estimate: PathEstimate, eligible_hit: bool = False) -> float:
        """Simulated estimation cost of a plan (deterministic, modelled).

        Neutral by default: a reused walk is charged exactly what computing
        it would have cost, so the memo never changes simulated metrics.
        """
        config = self.config
        if eligible_hit and config.estimate_cache_simulated_savings:
            return config.estimation_cache_hit_ms
        return config.estimation_cost_ms(estimate.work_units, estimate.query_count)

    def estimate(self, request: ProcedureRequest) -> PathEstimate:
        """Produce (only) the initial path estimate for a request."""
        return self._resolve(request, self.stats.for_procedure(request.procedure))[0]

    def plan(self, request: ProcedureRequest) -> HoudiniPlan:
        """Produce the execution plan and run-time monitor for a request.

        Planning is two layers behind one switch
        (:attr:`HoudiniConfig.enable_estimate_caching`): the plan memo is
        probed with the request's binding signature — an entry is served
        when the model's version has not moved or, failing that, when
        everything its walk read is still in place — and only a miss pays
        for a model walk plus optimization selection.  Both produce
        identical decisions and charge the identical modelled estimation
        cost, so simulated metrics do not depend on which one served a
        request.  A hit on a memoized decision serves the entry's plan
        (``repro.houdini.cache``, "What an entry compiles").
        """
        stats = self.stats.for_procedure(request.procedure)
        estimate, entry, model, footprint = self._resolve(request, stats)
        decision = entry.decision if entry is not None else None
        if decision is None:
            # Derived now: ``entry.eligible`` did not exist for this call.
            decision = self._decide(request, estimate, model, footprint, entry)
            plan = decision.as_plan(self._charged_ms(estimate), source="houdini")
        else:
            plan = entry.plan
            if plan is None:
                eligible = entry.eligible
                plan = entry.plan = decision.as_plan(
                    self._charged_ms(estimate, eligible),
                    source="houdini:cached" if eligible else "houdini",
                )
        runtime = HoudiniRuntime(
            None if estimate.degenerate else model,
            estimate,
            self.config,
            predicted_single_partition=decision.predicted_single_partition,
            undo_initially_disabled=decision.disable_undo,
            learn=self.learning,
            footprint=footprint,
            entry=entry,
        )
        self._record_plan_stats(stats, decision)
        return HoudiniPlan(
            plan=plan, runtime=runtime, estimate=estimate, decision=decision, model=model,
            stats=stats,
        )

    def plan_restart(
        self,
        request: ProcedureRequest,
        base_partition: int,
        *,
        attempt_number: int = 1,
        never_finish: frozenset[int] = frozenset(),
    ) -> HoudiniPlan:
        """Plan a conservative restart after a misprediction.

        Per the paper's evaluation, a mispredicted transaction is restarted
        as a multi-partition transaction that locks every partition with undo
        logging enabled.  Houdini still monitors the restarted attempt so
        that the early-prepare optimization (OP4) releases the partitions the
        transaction does not actually need — but restarts become
        progressively more conservative so the retry loop always converges:
        partitions in ``never_finish`` (they caused an early-prepare
        misprediction earlier in this transaction) are never released again,
        and the early-prepare optimization is switched off entirely from the
        second restart onward.
        """
        stats = self.stats.for_procedure(request.procedure)
        estimate, _, model, footprint = self._resolve(request, stats)
        plan = ExecutionPlan(
            base_partition=base_partition,
            locked_partitions=None,
            undo_logging=True,
            estimation_ms=self._charged_ms(estimate),
            source="houdini:restart",
        )
        runtime = HoudiniRuntime(
            None if estimate.degenerate else model,
            estimate,
            self.config,
            predicted_single_partition=False,
            undo_initially_disabled=False,
            learn=self.learning,
            footprint=footprint,
            allow_early_prepare=attempt_number < 2,
            never_finish=never_finish,
        )
        decision = OptimizationDecision(
            base_partition=base_partition,
            locked_partitions=self.catalog.scheme.all_partitions(),
            predicted_single_partition=False,
            disable_undo=False,
            abort_probability=estimate.abort_probability,
            confidence=estimate.confidence,
        )
        return HoudiniPlan(
            plan=plan, runtime=runtime, estimate=estimate, decision=decision, model=model,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def after_attempt(
        self,
        request: ProcedureRequest,
        houdini_plan: HoudiniPlan,
        attempt: AttemptResult,
    ) -> None:
        """Feed the attempt's outcome back into maintenance and statistics.

        What the attempt learned belongs to the model it ran on, which the
        runtime logs it into.  When that model was retired by a hot swap
        earlier in the same ``on_transaction_complete`` (a restarted
        transaction's later attempts), the attempt is dropped from
        maintenance and self-tuning: its transitions are not the new
        model's, and the retired model is not tracked again.
        """
        runtime = houdini_plan.runtime
        model = houdini_plan.model
        maintenance = None
        if model is not None and self.learning:
            maintenance = self.maintenance.tracking(model)
            if maintenance is None and self.provider.model_for(request) is model:
                # First attempt on this model (before the runtime logs, so
                # tracking starts with this attempt).
                maintenance = self.maintenance.for_model(model)
        committed = attempt.committed
        runtime.finish(committed)
        if maintenance is not None:
            self._since_maintenance += 1
            if self._since_maintenance >= self._maintenance_interval:
                self._since_maintenance = 0
                # Evict the memo entries that read a view or table a recompute
                # replaced now, not at a lookup that may never come; a view
                # dropped by a new edge is still caught at the lookup.
                recomputed = self.maintenance.check_all()
                if recomputed and self.estimate_cache is not None:
                    self.estimate_cache.evict_replaced(recomputed)
            if self._selftune is not None:
                # After the maintenance block so the drift check sees the
                # freshest accuracy signal.  The observer may swap the
                # procedure's model here — between transactions, which is
                # what makes the swap atomic.
                self._selftune.observe(request.procedure, runtime.stats.transitions)
        self._record_outcome_stats(houdini_plan, attempt, committed)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _record_plan_stats(self, stats: ProcedureStats, decision: OptimizationDecision) -> None:
        stats.transactions += 1
        stats.estimates += 1
        if decision.op1_selected:
            stats.op1_enabled += 1
        if decision.op2_selected:
            stats.op2_enabled += 1
        if decision.disable_undo:
            stats.op3_enabled += 1

    def _record_outcome_stats(
        self, houdini_plan: HoudiniPlan, attempt: AttemptResult, committed: bool
    ) -> None:
        stats = houdini_plan.stats
        runtime_stats = houdini_plan.runtime.stats
        decision = houdini_plan.decision
        mispredicted = attempt.mispredicted_partition is not None
        if mispredicted:
            stats.mispredicted_restarts += 1
        if decision.op1_selected and not mispredicted:
            touched = attempt.touched_partitions.as_frozenset()
            if not touched or decision.base_partition in touched or committed:
                stats.op1_correct += 1
        if decision.op2_selected and not mispredicted:
            stats.op2_correct += 1
        if runtime_stats.undo_disabled_at_query is not None and committed:
            # Undo logging was switched off at run time (§4.4 OP3 update).
            stats.op3_enabled += 0 if decision.disable_undo else 1
        if runtime_stats.finished_partitions and not runtime_stats.finish_mispredicted:
            stats.op4_enabled += 1

    # ------------------------------------------------------------------
    def reconfigure(
        self,
        *,
        confidence_threshold: float | None = None,
        enable_estimate_caching: bool | None = None,
    ) -> None:
        """Apply live configuration changes, routing through the invalidation
        contracts.

        ``confidence_threshold`` changes flush the plan memo — its entries
        store decisions that baked the old threshold in.
        ``enable_estimate_caching`` toggles the memo: on installs a fresh
        (empty) one, off invalidates and removes it.  Either way the next
        :meth:`plan` call operates entirely under the new configuration.
        """
        config = self.config
        if confidence_threshold is not None:
            schema.check_field(
                HoudiniConfig, "confidence_threshold", confidence_threshold, ValueError
            )
            config.confidence_threshold = confidence_threshold
            if self.estimate_cache is not None:
                self.estimate_cache.invalidate()
        if enable_estimate_caching is not None:
            config.enable_estimate_caching = enable_estimate_caching
            if enable_estimate_caching and self.estimate_cache is None:
                self.estimate_cache = EstimateCache(config)
            elif not enable_estimate_caching and self.estimate_cache is not None:
                self.estimate_cache.invalidate()
                self.estimate_cache = None

    def swap_model(self, procedure: str, model: MarkovModel) -> MarkovModel | None:
        """Serve ``model`` for ``procedure`` from now on; return the retired
        model (the self-tuner's hot swap).

        The provider's table changes in one dict store
        (:meth:`~repro.houdini.providers.GlobalModelProvider.install_model`),
        the plan memo drops exactly this procedure's entries (which releases
        the retired model they pin), and maintenance stops tracking the
        retired model.  Nothing else is rekeyed: other procedures' memoized
        walks stay where they are.  Sessions call it between two
        transactions, which makes the swap atomic.
        """
        old_model = self.provider.install_model(procedure, model)
        if self.estimate_cache is not None:
            self.estimate_cache.invalidate_procedure(procedure)
        if old_model is not None:
            self.maintenance.forget(old_model)
        return old_model

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"Houdini(threshold={self.config.confidence_threshold}, "
            f"models={len(list(self.provider.models()))}, "
            f"procedures={len(self.mappings)})"
        )
