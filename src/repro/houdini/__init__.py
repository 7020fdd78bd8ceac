"""Houdini: the on-line predictive framework (paper Section 4).

Path estimation runs on the critical path of every transaction, so
planning is two layers behind one switch — **memo probe → compiled stepwise
walk**:

* :mod:`repro.houdini.cache` memoizes every finished walk (and the decision
  derived from it) per ``(procedure, model, binding signature)``, validated
  by the model's version; ``HoudiniConfig.enable_estimate_caching`` is the
  single switch, and the test suite asserts cached ≡ fresh.
* :mod:`repro.houdini.compiled` resolves each statement's catalog and
  mapping metadata (replicated flag, partition column, literal binding,
  partitioning-parameter index) exactly once per procedure; per candidate
  state the walk then performs a dict lookup plus a couple of tuple
  indexings.  The paper-literal resolver survives as the reference the test
  suite compares against (``tests/houdini/reference.py``).
* :class:`~repro.markov.model.MarkovModel` precomputes probability-sorted
  successor arrays during ``process()``.  **Cache-invalidation contract:**
  a new outgoing edge (``fold_path``, ``log_transitions``) drops that
  vertex's precomputed array immediately — stale orderings are never
  served; a count on an existing edge only marks the vertex dirty
  (run-time counts are logged and folded at the next check).  The next
  ``process()`` re-derives probabilities for the dirty vertices and
  republishes only the arrays and probability tables that changed.  Every
  decision reads a processed model's probability tables (OP2 the first
  state's or begin's, OP3/OP4 the current vertex's), so a processed model
  always has them.
* :class:`~repro.types.PartitionSet` and
  :class:`~repro.markov.vertex.VertexKey` precompute their hashes, and
  small partition sets are interned, because those hashes and unions
  dominate the walk's inner loop.
"""

from .cache import CachedEstimate, CacheStats, EstimateCache
from .compiled import CompiledProcedure, CompiledStatement
from .config import HoudiniConfig
from .estimate import PartitionPrediction, PathEstimate
from .estimator import PathEstimator
from .houdini import Houdini, HoudiniPlan
from .maintenance import MaintenanceRegistry, MaintenanceStats, ModelMaintenance
from .optimizations import OptimizationDecision, OptimizationSelector
from .providers import GlobalModelProvider, ModelProvider
from .runtime import HoudiniRuntime, RuntimeStats
from .stats import HoudiniStats, ProcedureStats

__all__ = [
    "Houdini",
    "CompiledProcedure",
    "CompiledStatement",
    "EstimateCache",
    "CacheStats",
    "CachedEstimate",
    "HoudiniPlan",
    "HoudiniConfig",
    "PathEstimate",
    "PartitionPrediction",
    "PathEstimator",
    "OptimizationDecision",
    "OptimizationSelector",
    "ModelProvider",
    "GlobalModelProvider",
    "HoudiniRuntime",
    "RuntimeStats",
    "ModelMaintenance",
    "MaintenanceRegistry",
    "MaintenanceStats",
    "HoudiniStats",
    "ProcedureStats",
]
