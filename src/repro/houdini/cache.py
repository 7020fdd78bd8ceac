"""The plan memo: finished walks reused per binding signature (paper §6.3).

The paper observes that short single-partition transactions can spend a
large share of their total time inside Houdini (46.5% for AuctionMark's
``NewComment``) and notes that "Houdini can completely avoid this if it
caches the estimations for any non-abortable, always single-partition
transactions."  This module is that cache, generalised to the one fact that
makes reuse safe for *any* model shape: a walk reads the request parameters
only through the procedure's partition-binding signature
(:meth:`~repro.houdini.compiled.CompiledProcedure.binding_signature`), so a
finished walk is valid for every later request with the same signature for
as long as what it read from the model is unchanged.

An entry is keyed ``(procedure, id(model), signature)`` and holds

* the :class:`~repro.houdini.estimate.PathEstimate` (shared, read-only);
* the :class:`~repro.houdini.optimizations.OptimizationDecision` derived
  from it, or ``None`` while the decision has to be re-derived per request:
  nothing has planned the walk yet, or the model is learning and the
  decision is :attr:`support-limited
  <repro.houdini.optimizations.OptimizationDecision.support_limited>` — it
  can flip as observation counts grow with nothing the walk read replaced;
* ``eligible`` — the §6.3 rule itself (:meth:`EstimateCache.eligible`):
  non-abortable, always single-partition, decision memoized.  Only eligible
  hits take the ``estimate_cache_simulated_savings`` what-if charge and the
  ``houdini:cached`` source label.

What invalidates an entry
-------------------------

The memo must never change what Houdini decides, so an entry is served only
while a fresh walk would read exactly what the memoized one read:

* each entry records the :attr:`~repro.markov.model.MarkovModel.version` of
  the model it walked (and pins the model, so its identity cannot be
  recycled).  An unmoved version is the O(1) fast path: nothing
  prediction-relevant changed anywhere in the model;
* under a moved version the entry is validated by *what the walk read*
  (:attr:`PathEstimate.read_views` / ``read_tables``): the successor view
  fetched at each step and the probability table of each state accounted
  for, plus the decision's OP2 reference table.  The model replaces those
  objects and never mutates them (a new edge drops its source's view, a
  recompute installs new views for the dirty set and new tables for the
  affected closure), so identity is exact: if every recorded object is
  still in place the entry is re-stamped with the current version and
  served (``stats.revalidated``); if any was replaced — a dropped,
  not-yet-rebuilt view included — it is evicted and the lookup is a miss.
  A state discovered *off* a memoized path therefore leaves the walk alone;
  one *on* it evicts it.  The memoized decision rides along: beyond the recorded
  tables it reads only observation counts, and only through the
  support-limited gate above;
* :meth:`EstimateCache.invalidate_procedure` drops one procedure's entries
  when a retrained model is hot-swapped in (a maintenance recompute needs
  no call: the revalidation above evicts the entries whose views or tables
  it replaced; partitioned providers routing a procedure to a different
  cluster model land on a different key), and
  :meth:`EstimateCache.invalidate` drops everything (a live configuration
  change: decisions bake the confidence threshold in).

``stats.invalidations`` counts *entries evicted* on every invalidation path
(full flush, per-procedure, replaced read) so the counter means one thing.

What an entry compiles
----------------------

A hit serves what would otherwise be re-derived from the memoized walk and
decision; each lives and dies with the entry:

* ``plan`` — the :class:`~repro.txn.plan.ExecutionPlan` of every hit on a
  memoized decision, built once from it and ``eligible`` (hence the
  ``houdini:cached`` label and, under ``estimate_cache_simulated_savings``,
  the hit charge) and shared read-only.  The plan of the call that *derives*
  the decision predates ``eligible`` and is never kept;
* ``finish_candidates`` — the OP4 ``(threshold, candidates)`` pair the first
  initial-plan monitor on the entry compiled;
* ``schedule`` — per query of the estimated path, ``None`` or ``(undo
  disabled here, partitions released here)``: what the OP3/OP4 rules did on
  the first attempt that followed the estimate to ``commit`` and committed.
  Later attempts replay it while they follow the path, and run the rules
  from the same state once they leave it.

Only non-learning monitors of initial plans use the last two: a restart bars
partitions and OP4 per attempt, and under learning a path vertex's hit count
grows while the entry stays valid, so the ``op3_min_observations`` gate could
flip under a stored schedule.  All else a schedule reads is fixed per entry:
the path's vertices and tables, the decision's lock set and base partition,
the signature's footprint, ``estimate.finish_points()`` and configuration
that is not live.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..markov.model import MarkovModel
from ..txn.plan import ExecutionPlan
from ..types import PartitionId
from .config import HoudiniConfig
from .estimate import PathEstimate
from .optimizations import OptimizationDecision

#: Memo key: (procedure name, ``id(model)``, binding signature).
CacheKey = tuple[str, int, tuple]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries evicted by any invalidation path (flush, per-procedure,
    #: something the walk read was replaced).
    invalidations: int = 0
    #: Hits served under a moved model version because everything the walk
    #: read was still in place (a subset of ``hits``).
    revalidated: int = 0
    #: Requests that could not even be keyed (no signature can vouch for the
    #: walk, or no processed model exists).  Counted as lookups so the hit
    #: rate reflects how much of the *workload* the memo absorbs.
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.uncacheable

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass(slots=True)
class CachedEstimate:
    """One finished walk plus what was derived from it (see module docstring)."""

    estimate: PathEstimate
    #: The walked model (pinned) and its version at walk time.
    model: MarkovModel
    version: int
    decision: OptimizationDecision | None = None
    eligible: bool = False
    #: What a hit serves without re-deriving it ("What an entry compiles").
    plan: ExecutionPlan | None = None
    finish_candidates: tuple[float, list[tuple[PartitionId, int]]] | None = None
    schedule: tuple[tuple[bool, tuple[PartitionId, ...]] | None, ...] | None = None


class EstimateCache:
    """LRU memo of path estimates and decisions, one entry per signature."""

    def __init__(self, config: HoudiniConfig | None = None, *, max_entries: int | None = None) -> None:
        self.config = config or HoudiniConfig()
        self.max_entries = max_entries or self.config.estimate_cache_max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, CachedEstimate] = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: CacheKey | None, model: MarkovModel | None) -> CachedEstimate | None:
        """Return the entry for ``key`` (LRU-refreshing it), if still valid.

        ``model`` is the model the key names; an entry walked under another
        version of it is served (and re-stamped) only if everything its walk
        read is still in place, else evicted on the spot.  ``key`` is
        ``None`` for a request that cannot be memoized at all.
        """
        if key is None:
            self.stats.uncacheable += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.version != model.version:
            estimate = entry.estimate
            if not model.still_publishes(
                estimate.vertices, estimate.read_views, estimate.read_tables
            ):
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            entry.version = model.version
            self.stats.revalidated += 1
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def store(self, key: CacheKey, model: MarkovModel, estimate: PathEstimate) -> CachedEstimate:
        """Memoize a finished walk of ``model`` at its current version.

        The entry starts without a decision; the facade fills ``decision``
        and ``eligible`` in once a reusable decision has been derived.
        """
        entry = self._entries[key] = CachedEstimate(estimate, model, model.version)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        self.stats.stores += 1
        return entry

    def eligible(
        self,
        estimate: PathEstimate,
        decision: OptimizationDecision,
        footprint: frozenset[PartitionId] | None,
    ) -> bool:
        """The §6.3 rule: non-abortable and always single-partition.

        The footprint condition is the "always": the parameter mappings
        alone must pin the request to one partition, whatever path it takes.
        """
        return (
            footprint is not None
            and len(footprint) == 1
            and estimate.reached_terminal
            and not estimate.predicted_abort
            and decision.predicted_single_partition
            and estimate.abort_probability <= self.config.abort_tolerance
        )

    # ------------------------------------------------------------------
    def invalidate(self) -> int:
        """Drop every entry (a live configuration change).

        Returns the number of entries evicted; ``stats.invalidations``
        advances by the same amount.
        """
        evicted = len(self._entries)
        self.stats.invalidations += evicted
        self._entries.clear()
        return evicted

    def invalidate_procedure(self, procedure: str) -> int:
        """Drop entries for one procedure; returns how many were removed."""
        doomed = [key for key in self._entries if key[0] == procedure]
        for key in doomed:
            del self._entries[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def describe(self) -> str:
        return (
            f"EstimateCache(entries={len(self)}, hits={self.stats.hits}, "
            f"misses={self.stats.misses}, uncacheable={self.stats.uncacheable}, "
            f"hit_rate={self.stats.hit_rate:.2%})"
        )
