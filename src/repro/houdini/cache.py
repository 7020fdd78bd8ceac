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
as long as the model it walked is unchanged.

An entry is keyed ``(procedure, id(model), signature)`` and holds

* the :class:`~repro.houdini.estimate.PathEstimate` (shared, read-only);
* the :class:`~repro.houdini.optimizations.OptimizationDecision` derived
  from it, or ``None`` while the decision has to be re-derived per request:
  nothing has planned the walk yet, or the model is learning and the
  decision is :attr:`support-limited
  <repro.houdini.optimizations.OptimizationDecision.support_limited>` — it
  can flip as observation counts grow without the model version moving;
* ``eligible`` — the §6.3 rule itself (:meth:`EstimateCache.eligible`):
  non-abortable, always single-partition, decision memoized.  Only eligible
  hits take the ``estimate_cache_simulated_savings`` what-if charge and only
  eligible entries back the sharded backend's speculation.

What invalidates an entry
-------------------------

The memo must never change what Houdini decides, so one token covers every
event that could change a freshly-planned result:

* each entry records the :attr:`~repro.markov.model.MarkovModel.version` of
  the model it walked (and pins the model, so its identity cannot be
  recycled); a lookup under a different version evicts the entry and is a
  miss.  That covers run-time learning adding vertices or edges and every
  probability recomputation; partitioned providers routing a procedure to a
  different cluster model land on a different key;
* :meth:`EstimateCache.invalidate_procedure` drops one procedure's entries
  (model maintenance recomputed it, or a retrained model was hot-swapped
  in) and :meth:`EstimateCache.invalidate` drops everything (a live
  configuration change: decisions bake the confidence threshold in).

``stats.invalidations`` counts *entries evicted* on every invalidation path
(full flush, per-procedure, stale version) so the counter means one thing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..markov.model import MarkovModel
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
    #: stale model version).
    invalidations: int = 0
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
        version of it is stale and is evicted on the spot.  ``key`` is
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
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def peek(self, key: CacheKey | None, model: MarkovModel | None) -> CachedEstimate | None:
        """Side-effect-free :meth:`lookup`: no stats, no LRU refresh, no
        eviction.

        The sharded backend uses this to *speculate* whether a request would
        be served from the memo without perturbing any counter the real
        (authoritative) ``lookup`` at fold time will advance — the peek must
        leave the cache byte-identical to a run that never peeked.
        """
        entry = self._entries.get(key)
        if entry is None or entry.version != model.version:
            return None
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
